(** Test-only oracle: the original list-based band DP of Lemma 13.

    Same contract as {!Sap.Elevator.optimal_band}: each state is an
    [(task, height)] association list merged through a polymorphic
    [Hashtbl], every candidate height is tested against the whole alive
    set, and truncation sorts the full state list.  It emits the same
    [elevator.*] counters, so the test suite checks that the production DP
    reaches the same optimal weight, exactness flag and (when untruncated)
    the same [elevator.dp_states] / [elevator.candidate_heights] counts.
    Placements among equal-weight optima follow [Hashtbl] fold order here
    and are not compared.  Production code must use {!Sap.Elevator}. *)

type result = {
  solution : Core.Solution.sap;
  exact : bool;
}

val optimal_band :
  cap:int ->
  ?min_height:int ->
  ?max_states:int ->
  Core.Path.t ->
  Core.Task.t list ->
  result
