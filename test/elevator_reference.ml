(* Test-only oracle: the original list-based Elevator band DP, kept
   verbatim as {!Sap.Elevator.optimal_band} was before its data-oriented
   rewrite.  See the interface for what the tests pin against it. *)

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

type state = {
  alive : (Task.t * int) list;  (* sorted by task id *)
  weight : float;
  placed : Core.Solution.sap;
}

let state_key st =
  List.map (fun ((j : Task.t), h) -> (j.Task.id, h)) st.alive

let insert_alive alive (j, h) =
  let rec go = function
    | [] -> [ (j, h) ]
    | ((i : Task.t), _) as hd :: tl when i.Task.id < (j : Task.t).Task.id ->
        hd :: go tl
    | rest -> (j, h) :: rest
  in
  go alive

let vertical_conflict (j : Task.t) p ((i : Task.t), hi) =
  p < hi + i.Task.demand && hi < p + j.Task.demand

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
      let starters = Array.make m [] in
      List.iter
        (fun (j : Task.t) ->
          starters.(j.Task.first_edge) <- j :: starters.(j.Task.first_edge))
        ts;
      (* Stable processing order inside an edge keeps runs reproducible. *)
      Array.iteri
        (fun e js -> starters.(e) <- List.sort Task.compare js)
        starters;
      let merge states =
        let tbl = Hashtbl.create (List.length states) in
        List.iter
          (fun st ->
            let key = state_key st in
            match Hashtbl.find_opt tbl key with
            | Some st' when st'.weight >= st.weight -> ()
            | _ -> Hashtbl.replace tbl key st)
          states;
        Hashtbl.fold (fun _ st acc -> st :: acc) tbl []
      in
      let truncate states =
        if List.length states <= max_states then states
        else begin
          exact := false;
          Obs.Metrics.incr m_truncations;
          let sorted =
            List.sort (fun a b -> Float.compare b.weight a.weight) states
          in
          List.filteri (fun i _ -> i < max_states) sorted
        end
      in
      let expand_task states (j : Task.t) =
        let ceiling = Path.bottleneck_of clipped j in
        let with_placements st =
          let feasible_heights =
            List.filter
              (fun p ->
                p + j.Task.demand <= ceiling
                && not (List.exists (vertical_conflict j p) st.alive))
              candidates
          in
          st
          :: List.map
               (fun p ->
                 {
                   alive = insert_alive st.alive (j, p);
                   weight = st.weight +. j.Task.weight;
                   placed = (j, p) :: st.placed;
                 })
               feasible_heights
        in
        List.concat_map with_placements states |> merge |> truncate
      in
      let drop_expired e states =
        List.map
          (fun st ->
            {
              st with
              alive =
                List.filter (fun ((i : Task.t), _) -> i.Task.last_edge >= e) st.alive;
            })
          states
        |> merge
      in
      let initial = [ { alive = []; weight = 0.0; placed = [] } ] in
      let final =
        let rec sweep e states =
          if e = m then states
          else
            let states = drop_expired e states in
            let states = List.fold_left expand_task states starters.(e) in
            (* Counting live states is O(|states|); only pay when observed. *)
            if Obs.Metrics.enabled () then
              Obs.Metrics.add m_dp_states (List.length states);
            sweep (e + 1) states
        in
        sweep 0 initial
      in
      let best =
        List.fold_left
          (fun acc st ->
            match acc with
            | Some b when b.weight >= st.weight -> acc
            | _ -> Some st)
          None final
      in
      let solution = match best with Some st -> st.placed | None -> [] in
      { solution; exact = !exact }
