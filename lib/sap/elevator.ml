module Task = Core.Task
module Path = Core.Path

type result = {
  solution : Core.Solution.sap;
  exact : bool;
}

let m_dp_states = Obs.Metrics.counter "elevator.dp_states"

let m_truncations = Obs.Metrics.counter "elevator.truncations"

let m_candidate_heights = Obs.Metrics.counter "elevator.candidate_heights"

let m_band_solves = Obs.Metrics.counter "elevator.band_solves"

(* Candidate heights: bounded distinct subset sums of all demands; the
   gravity argument makes this complete.  Capped to keep adversarial
   palettes polynomial — the flag records whether the cap was reached. *)
let candidate_cap = 4096

let height_candidates ~cap ~min_height ts =
  let demands = List.map (fun (j : Task.t) -> j.Task.demand) ts in
  let sums = Util.Subset_sum.distinct_sums_capped ~cap:candidate_cap ~bound:cap demands in
  let exact = List.length sums < candidate_cap in
  if min_height = 0 then (sums, exact)
  else begin
    (* An optimal elevated solution exists whose heights are either subset
       sums >= min_height or subset sums lifted by min_height (the shape
       Lemma 14's partition produces), so both families are candidates. *)
    let lifted = List.map (fun h -> h + min_height) sums in
    let merged =
      List.sort_uniq Int.compare
        (List.filter (fun h -> h >= min_height && h < cap) (sums @ lifted))
    in
    (merged, exact)
  end

(* The placements a state made, newest first: band index, height and the
   rest.  A parent's trail is shared by all its children. *)
type trail = Start | Placed of int * int * trail

(* One generation of DP states, in generation order.  State [s] has
   weight [weight.(s)], trail [trail.(s)] and key
   [keys.(off.(s)) .. keys.(off.(s + 1) - 1)]: its alive set with heights,
   packed [idx; h; idx; h; ...] in band index (= task id) order.  All keys
   of a generation sit back to back in one int array, so a state costs no
   allocation beyond its trail node. *)
type gen = {
  mutable keys : int array;
  mutable off : int array;  (* length = capacity + 1 *)
  mutable weight : float array;
  mutable trail : trail array;
  mutable len : int;
}

let create_gen () =
  {
    keys = Array.make 256 0;
    off = Array.make 65 0;
    weight = Array.make 64 0.0;
    trail = Array.make 64 Start;
    len = 0;
  }

let grow a size fill =
  let b = Array.make size fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Room for one more state with a key of up to [words] ints. *)
let reserve g words =
  let need = g.off.(g.len) + words in
  if need > Array.length g.keys then
    g.keys <- grow g.keys (max need (2 * Array.length g.keys)) 0;
  let cap = Array.length g.weight in
  if g.len = cap then begin
    g.off <- grow g.off ((2 * cap) + 1) 0;
    g.weight <- grow g.weight (2 * cap) 0.0;
    g.trail <- grow g.trail (2 * cap) Start
  end

(* Append a state whose [klen]-int key is already written at [off.(len)]. *)
let[@inline] commit g klen w t =
  g.off.(g.len + 1) <- g.off.(g.len) + klen;
  g.weight.(g.len) <- w;
  g.trail.(g.len) <- t;
  g.len <- g.len + 1

let key_hash g s =
  let h = ref (g.off.(s + 1) - g.off.(s)) in
  for p = g.off.(s) to g.off.(s + 1) - 1 do
    h := (!h * 0x100000001b3) lxor g.keys.(p)
  done;
  (!h lxor (!h lsr 29)) land max_int

let key_equal g a b =
  let la = g.off.(a) and lb = g.off.(b) in
  let n = g.off.(a + 1) - la in
  n = g.off.(b + 1) - lb
  &&
  let rec go i = i = n || (g.keys.(la + i) = g.keys.(lb + i) && go (i + 1)) in
  go 0

(* First index in [a.(from) .. a.(upto - 1)] holding a value >= [x]. *)
let lower_bound a ~from ~upto x =
  let lo = ref from and hi = ref upto in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Keep the [max_states] heaviest states, ties to the earlier-generated one,
   in generation order (compacted in place). *)
let select_top g max_states =
  if max_states <= 0 then g.len <- 0
  else begin
    let ws = Array.sub g.weight 0 g.len in
    Array.sort (fun x y -> Float.compare y x) ws;
    let cut = ws.(max_states - 1) in
    let ties = ref 0 in
    for s = 0 to max_states - 1 do
      if ws.(s) = cut then incr ties
    done;
    let kept = ref 0 in
    for s = 0 to g.len - 1 do
      let w = g.weight.(s) in
      if w > cut || (w = cut && !ties > 0) then begin
        if w = cut then decr ties;
        if !kept < s then begin
          let lo = g.off.(s) and klen = g.off.(s + 1) - g.off.(s) in
          Array.blit g.keys lo g.keys g.off.(!kept) klen;
          g.off.(!kept + 1) <- g.off.(!kept) + klen;
          g.weight.(!kept) <- w;
          g.trail.(!kept) <- g.trail.(s)
        end;
        incr kept
      end
    done;
    g.len <- !kept
  end

let optimal_band ~cap ?(min_height = 0) ?(max_states = 20000) path ts =
  let clipped = Path.clip path cap in
  let ts =
    List.filter (fun (j : Task.t) -> j.Task.demand <= Path.bottleneck_of clipped j) ts
  in
  match ts with
  | [] -> { solution = []; exact = true }
  | _ ->
      let m = Path.num_edges clipped in
      let candidates, cands_exact = height_candidates ~cap ~min_height ts in
      Obs.Metrics.incr m_band_solves;
      Obs.Metrics.add m_candidate_heights (List.length candidates);
      let exact = ref cands_exact in
      let cands = Array.of_list candidates in
      let nc = Array.length cands in
      (* Index the band once, in id order; a task's index is its key id. *)
      let tasks = Array.of_list (List.stable_sort Task.compare ts) in
      let n = Array.length tasks in
      let demand = Array.map (fun (j : Task.t) -> j.Task.demand) tasks in
      let last_edge = Array.map (fun (j : Task.t) -> j.Task.last_edge) tasks in
      (* [fits.(i)]: candidates [cands.(0 .. fits.(i) - 1)] keep task [i]
         under its clipped bottleneck. *)
      let fits =
        Array.map
          (fun (j : Task.t) ->
            let top = Path.bottleneck_of clipped j - j.Task.demand in
            lower_bound cands ~from:0 ~upto:nc (top + 1))
          tasks
      in
      (* [expiring.(e)]: some task ends at edge [e - 1], so states change
         (and may merge) at [e]. *)
      let starters = Array.make m [] and expiring = Array.make (m + 1) false in
      for i = n - 1 downto 0 do
        starters.(tasks.(i).Task.first_edge) <- i :: starters.(tasks.(i).Task.first_edge);
        expiring.(last_edge.(i) + 1) <- true
      done;
      let cur = ref (create_gen ()) and next = ref (create_gen ()) in
      commit !cur 0 0.0 Start;
      let swap () =
        let g = !cur in
        cur := !next;
        next := g
      in
      let module Slots = Hashtbl.Make (struct
        type t = int

        let equal a b = key_equal !next a b

        let hash s = key_hash !next s
      end) in
      let merged = Slots.create 64 in
      (* Drop the tasks that ended before edge [e].  Equal keys merge keeping
         the heavier state, the later one on a tie. *)
      let drop_expired e =
        let src = !cur and dst = !next in
        dst.len <- 0;
        Slots.clear merged;
        for s = 0 to src.len - 1 do
          let lo = src.off.(s) and hi = src.off.(s + 1) in
          reserve dst (hi - lo);
          let base = dst.off.(dst.len) in
          let w = ref base in
          for p = 0 to ((hi - lo) / 2) - 1 do
            let q = lo + (2 * p) in
            if last_edge.(src.keys.(q)) >= e then begin
              dst.keys.(!w) <- src.keys.(q);
              dst.keys.(!w + 1) <- src.keys.(q + 1);
              w := !w + 2
            end
          done;
          (* Staged as slot [dst.len] so the table can hash it. *)
          dst.off.(dst.len + 1) <- !w;
          let weight = src.weight.(s) in
          match Slots.find_opt merged dst.len with
          | Some t ->
              if weight >= dst.weight.(t) then begin
                dst.weight.(t) <- weight;
                dst.trail.(t) <- src.trail.(s)
              end
          | None ->
              Slots.add merged dst.len dst.len;
              commit dst (!w - base) weight src.trail.(s)
        done;
        swap ()
      in
      (* Scratch for one state's occupied intervals, sorted by bottom. *)
      let bottoms = Array.make n 0 and tops = Array.make n 0 in
      (* For each parent in order: its skip child, then one child per
         feasible candidate height in ascending order.  Children of distinct
         parents have distinct keys, so no merge is needed here. *)
      let expand_task i =
        let d = demand.(i) and fit = fits.(i) in
        let dw = tasks.(i).Task.weight in
        let src = !cur and dst = !next in
        let keys = src.keys in
        dst.len <- 0;
        for s = 0 to src.len - 1 do
          let lo = src.off.(s) and hi = src.off.(s + 1) in
          let klen = hi - lo in
          reserve dst klen;
          let base = dst.off.(dst.len) and k = dst.keys in
          for p = 0 to klen - 1 do
            k.(base + p) <- keys.(lo + p)
          done;
          commit dst klen src.weight.(s) src.trail.(s);
          if fit > 0 then begin
            (* Alive tasks all cover this edge, so their intervals are
               disjoint: insertion-sort them by bottom. *)
            let a = klen / 2 in
            for p = 0 to a - 1 do
              let b = keys.(lo + (2 * p) + 1) in
              let t = b + demand.(keys.(lo + (2 * p))) in
              let q = ref p in
              while !q > 0 && bottoms.(!q - 1) > b do
                bottoms.(!q) <- bottoms.(!q - 1);
                tops.(!q) <- tops.(!q - 1);
                decr q
              done;
              bottoms.(!q) <- b;
              tops.(!q) <- t
            done;
            (* Task [i] goes after the first [before] key ints. *)
            let before = ref 0 in
            while !before < klen && keys.(lo + !before) < i do
              before := !before + 2
            done;
            let w = src.weight.(s) +. dw and up = src.trail.(s) in
            (* Scan the gaps [tops.(g-1), bottoms.(g)) bottom-up. *)
            let c = ref 0 and g = ref 0 and floor = ref 0 in
            while !g <= a && !c < fit do
              let roof = if !g < a then bottoms.(!g) else max_int in
              c := lower_bound cands ~from:!c ~upto:fit !floor;
              while !c < fit && cands.(!c) + d <= roof do
                let h = cands.(!c) in
                reserve dst (klen + 2);
                let base = dst.off.(dst.len) and k = dst.keys in
                for p = 0 to !before - 1 do
                  k.(base + p) <- keys.(lo + p)
                done;
                k.(base + !before) <- i;
                k.(base + !before + 1) <- h;
                for p = !before to klen - 1 do
                  k.(base + p + 2) <- keys.(lo + p)
                done;
                commit dst (klen + 2) w (Placed (i, h, up));
                incr c
              done;
              if !g < a then floor := tops.(!g);
              incr g
            done
          end
        done;
        if dst.len > max_states then begin
          exact := false;
          Obs.Metrics.incr m_truncations;
          select_top dst max_states
        end;
        swap ()
      in
      for e = 0 to m - 1 do
        if expiring.(e) then drop_expired e;
        List.iter expand_task starters.(e);
        Obs.Metrics.add m_dp_states !cur.len
      done;
      (* Among equal-weight optima the later-generated state wins. *)
      let final = !cur in
      let best = ref 0 in
      for s = 1 to final.len - 1 do
        if final.weight.(s) >= final.weight.(!best) then best := s
      done;
      let rec placements = function
        | Start -> []
        | Placed (i, h, up) -> (tasks.(i), h) :: placements up
      in
      let solution = if final.len = 0 then [] else placements final.trail.(!best) in
      { solution; exact = !exact }

let partition_elevated ~elevation _path ~cap:_ sol =
  let low, high = List.partition (fun (_, h) -> h < elevation) sol in
  (Core.Solution.lift low elevation, high)

let solve ~k ~ell ~q ?(strategy = `Partition) ?max_states path ts =
  let cap = 1 lsl (k + ell) in
  let elevation = if k >= q then 1 lsl (k - q) else 1 in
  match strategy with
  | `Direct ->
      (* One DP over elevated heights only: optimal among beta-elevated
         solutions, which Lemma 14 proves is a 2-approximation. *)
      optimal_band ~cap ~min_height:elevation ?max_states path ts
  | `Partition ->
      let r = optimal_band ~cap ?max_states path ts in
      let s1, s2 = partition_elevated ~elevation path ~cap r.solution in
      (* S2 is a sub-solution of a feasible solution, hence feasible; S1 is
         feasible for (1-2beta)-small tasks by Lemma 14 — machine-checked,
         and discarded if the integer edge cases of a tiny band break it. *)
      let s1_ok = Result.is_ok (Core.Checker.sap_feasible path s1) in
      let w1 = if s1_ok then Core.Solution.sap_weight s1 else neg_infinity in
      let w2 = Core.Solution.sap_weight s2 in
      { solution = (if w1 >= w2 then s1 else s2); exact = r.exact }
