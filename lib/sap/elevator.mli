(** Algorithm Elevator: optimal SAP on an almost-uniform band, partitioned
    into a beta-elevated 2-approximation (Lemmas 13-15).

    {2 The dynamic program (Lemma 13)}

    Edges are swept left to right; a DP state is the set of *alive* tasks
    (those whose path covers the current edge) together with their heights.
    When a task starts, it is either skipped or placed at a candidate
    height; conflicts are checked against the alive set, which is complete
    because two overlapping tasks are simultaneously alive on every shared
    edge.  Candidate heights are the bounded distinct subset sums of all
    demands — complete by the gravity argument (Observation 11 /
    Lemma 12(ii)).  States with equal (alive-set, heights) keys are merged
    keeping the max weight, which is exactly the paper's table
    [Pi(e_i, S_i, h_i)] evaluated lazily on reachable states only.

    {2 Data layout}

    The band's tasks are indexed once, in id order; per task the DP keeps
    its demand, last edge and candidate prefix (the candidates that fit
    under its clipped bottleneck, found by binary search).  A state's key
    is its alive set packed as ints [[idx; h; idx; h; ...]] in index
    order.  One generation of states keeps all its keys back to back in a
    single [int array], with weights in a [float array], in generation
    order, so the live count is O(1).  A placement allocates one trail
    node: a state's list of placements shares its tail with its
    parent's.  Equal keys are found through a [Hashtbl.Make] over state
    slots with an int hash and a loop equality.

    Placement is a gap scan: the alive tasks all cover the current edge,
    so their height intervals are disjoint.  They are sorted by height,
    and for each gap between them a binary search finds the candidate
    range that fits, emitted in ascending height.  The children of
    distinct parents have distinct keys, so only dropping the tasks that
    expire at an edge can merge states.

    {2 Tie rule}

    Generation order is: parent states in order, and for each one the
    skip before its placements, placements in ascending height.  On equal
    weight the later-generated state wins, both when equal keys merge and
    in the final pick — so higher placements win ties.  Placements among
    equal-weight optima follow this rule, which does not depend on hashing
    or on the order of the input task list.

    The paper's bound on the table size uses [L = 2^ell / delta] tasks per
    edge (Lemma 12(i)); we do not materialise the full [O(n^(L+L^2))] table
    but cap the live state count, reporting whether the cap was hit (in
    which case the result is a heuristic, not an optimum — the tests run
    well under the cap).  A step over the cap keeps the [max_states]
    heaviest states, the earlier-generated on equal weight, in generation
    order. *)

type result = {
  solution : Core.Solution.sap;
  exact : bool;  (** false iff the state cap truncated the search *)
}

val optimal_band :
  cap:int ->
  ?min_height:int ->
  ?max_states:int ->
  Core.Path.t ->
  Core.Task.t list ->
  result
(** [optimal_band ~cap p ts] — optimal SAP for [ts] with every capacity
    clipped at [cap] (the band's [2^(k+ell)] ceiling).  [max_states]
    defaults to 20000 live states per edge.  [min_height] (default 0)
    restricts candidate heights to [>= min_height]: with
    [min_height = beta * 2^k] this computes the optimal *beta-elevated*
    solution directly — the alternative the paper notes after Lemma 15. *)

val partition_elevated :
  elevation:int ->
  Core.Path.t ->
  cap:int ->
  Core.Solution.sap ->
  Core.Solution.sap * Core.Solution.sap
(** Lemma 14: split [(S,h)] into [S1 = { h < elevation }] lifted by
    [elevation], and [S2 = { h >= elevation }].  Both halves are
    [elevation]-elevated; [S2] is trivially feasible and [S1]'s
    feasibility, guaranteed for [(1-2beta)]-small tasks when
    [elevation <= beta * 2^k], is machine-checked by the caller. *)

val solve :
  k:int ->
  ell:int ->
  q:int ->
  ?strategy:[ `Partition | `Direct ] ->
  ?max_states:int ->
  Core.Path.t ->
  Core.Task.t list ->
  result
(** The full Elevator.  With [`Partition] (default, the paper's Lemma 15):
    optimal band solution, partitioned at elevation [2^(k-q)] (clamped to
    at least 1), better feasible half returned — 2-approximate and
    beta-elevated for [beta >= 2^-q].  With [`Direct] (the alternative the
    paper notes after Lemma 15): one DP restricted to elevated heights,
    returning the optimal elevated solution directly — also 2-approximate
    by Lemma 14, and never worse than either partition half.  The ABL
    bench compares the two. *)
