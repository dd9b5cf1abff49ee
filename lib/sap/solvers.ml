type t = {
  name : string;
  bound : float option;
  subset : Core.Path.t -> Core.Task.t list -> Core.Task.t list;
  run :
    seed:int ->
    parallel:bool ->
    Core.Path.t ->
    Core.Task.t list ->
    Core.Solution.sap * Combine.report option;
}

let dc = Combine.default_config

let q = Combine.q_of_beta dc.Combine.beta

let ell = Almost_uniform.ell_for_eps ~eps:dc.Combine.eps ~q

let small_bound = 4.0 +. dc.Combine.eps (* Theorem 1 *)

let medium_bound = 2.0 +. dc.Combine.eps (* Theorem 2 with the Elevator, alpha = 2 *)

let large_bound = 3.0 (* Theorem 3, k = 2 *)

let part select path tasks =
  select
    (Core.Classify.split3 path ~delta:dc.Combine.delta
       ~large_frac:(1.0 -. (2.0 *. dc.Combine.beta))
       tasks)

let whole _ tasks = tasks

(* An engine without seed, parallelism or report. *)
let plain name solve =
  {
    name;
    bound = None;
    subset = whole;
    run = (fun ~seed:_ ~parallel:_ path ts -> (solve path ts, None));
  }

let all =
  [
    {
      name = "small";
      bound = Some small_bound;
      subset = part (fun s -> s.Core.Classify.small);
      run =
        (fun ~seed ~parallel path ts ->
          ( Small.strip_pack ~parallel ~rounding:dc.Combine.rounding
              ~prng:(Util.Prng.create seed) path ts,
            None ));
    };
    {
      name = "medium";
      bound = Some medium_bound;
      subset = part (fun s -> s.Core.Classify.medium);
      run =
        (fun ~seed:_ ~parallel:_ path ts ->
          ( (Almost_uniform.run ~ell ~q ?max_states:dc.Combine.max_states path ts)
              .Almost_uniform.solution,
            None ));
    };
    {
      name = "large";
      bound = Some large_bound;
      subset = part (fun s -> s.Core.Classify.large);
      run = (fun ~seed:_ ~parallel:_ path ts -> (Large.solve path ts, None));
    };
    {
      name = "combine";
      bound = Some (small_bound +. medium_bound +. large_bound) (* Lemma 3 *);
      subset = whole;
      run =
        (fun ~seed ~parallel path ts ->
          let r =
            Combine.solve_report ~config:{ dc with Combine.seed; parallel } path ts
          in
          (r.Combine.solution, Some r));
    };
    plain "sapu" Sap_u.solve;
    plain "firstfit" (fun path ts -> fst (Dsa.First_fit.pack path ts));
    plain "exact" Exact.Sap_brute.solve;
  ]

let find name = List.find_opt (fun s -> s.name = name) all

let names = List.map (fun s -> s.name) all
