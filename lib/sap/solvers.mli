(** The SAP engine registry — name-keyed dispatch so the server, the CLI,
    the ratio lab and the hunt enumerate one list instead of hand-written
    tables (the pattern of {!Round.Solvers}).

    Every engine reads its knobs off {!Combine.default_config}: a
    standalone [small] or [medium] run gets exactly what [combine] would
    feed that part, so part-level and combined answers agree. *)

type t = {
  name : string;
  bound : float option;
      (** The proven ratio at {!Combine.default_config}: [4 + eps]
          (Theorem 1), [2 + eps] (Theorem 2, Elevator), [3] (Theorem 3)
          and their sum for [combine] (Lemma 3).  [None] for engines the
          ratio lab does not measure. *)
  subset : Core.Path.t -> Core.Task.t list -> Core.Task.t list;
      (** The classified task part the engine is responsible for (the
          [1 - 2 beta] large threshold of {!Combine.solve_report});
          the identity for [combine] and the non-part engines. *)
  run :
    seed:int ->
    parallel:bool ->
    Core.Path.t ->
    Core.Task.t list ->
    Core.Solution.sap * Combine.report option;
      (** The engine itself.  [seed] reaches every randomized engine;
          [parallel] enables domain fan-out where the engine has one.
          The report is [Some] exactly for [combine]. *)
}

val all : t list
(** [small], [medium], [large], [combine] (bounded), then [sapu]
    (Sap_u), [firstfit] ({!Dsa.First_fit.pack}) and [exact]
    ({!Exact.Sap_brute}). *)

val find : string -> t option

val names : string list
