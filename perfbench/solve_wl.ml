(* solve-medium: a closed loop in this process, one caller,
   one instance at a time.  Each operation parses an instance text, runs
   [Sap.Combine.solve] and re-verifies the answer with the checker; its
   time runs from the start of the parse to the checked solution. *)

module Task = Core.Task
module Path = Core.Path
module Combine = Sap.Combine

type spec = {
  pool : int;  (* distinct instance texts generated at set-up *)
  counted : int;
      (* instances whose verified weight makes up weight_sum, and the
         minimum number of operations of a run *)
}

let medium = { pool = 3000; counted = 200 }

let now = Obs.Clock.monotonic_seconds

let check path tasks sol =
  match Core.Checker.sap_feasible path sol with
  | Error m -> Error m
  | Ok () ->
      if Core.Checker.subset_of (Core.Solution.sap_tasks sol) tasks then Ok ()
      else Error "solution contains tasks that are not in the instance"

let parse text =
  match Sap_io.Instance_io.instance_of_string text with
  | Ok inst -> inst
  | Error m -> failwith ("generated instance does not parse: " ^ m)

(* Set-up: generate the pool and solve its first few instances once, so
   code paths and the heap are warm before timing starts. *)
let setup spec ~seed =
  let texts = Array.init spec.pool (fun i -> Inputs.text (Inputs.medium_instance ~seed i)) in
  for i = 0 to 4 do
    let path, tasks = parse texts.(i) in
    ignore (Combine.solve path tasks)
  done;
  texts

type plain = {
  times : Sample.t;  (* ms per operation *)
  ops : int;
  failed : int;
  weight_sum : float;
  elapsed : float;
}

let run_plain spec texts ~seconds =
  let times = Sample.create () in
  let ops = ref 0 and failed = ref 0 and weight = ref 0.0 in
  let t_start = now () in
  let deadline = t_start +. seconds in
  while now () < deadline || !ops < spec.counted do
    let i = !ops in
    incr ops;
    let t0 = now () in
    match
      let path, tasks = parse texts.(i mod Array.length texts) in
      let sol = Combine.solve path tasks in
      Result.map (fun () -> Core.Solution.sap_weight sol) (check path tasks sol)
    with
    | Ok w ->
        Sample.add times ((now () -. t0) *. 1000.0);
        if i < spec.counted then weight := !weight +. w
    | Error m ->
        incr failed;
        prerr_endline ("perfbench: instance " ^ string_of_int i ^ ": " ^ m)
    | exception e ->
        incr failed;
        prerr_endline
          ("perfbench: instance " ^ string_of_int i ^ ": " ^ Printexc.to_string e)
  done;
  { times; ops = !ops; failed = !failed; weight_sum = !weight; elapsed = now () -. t_start }

(* ---------- traced run ---------- *)

(* Per-layer time (seconds, summed) over the operations of a traced run. *)
type layer_times = {
  mutable parse : float;
  mutable classify : float;
  mutable small : float;
  mutable medium : float;
  mutable large : float;
  mutable checker : float;
}

type traced = {
  all : layer_times;  (* every operation of the run *)
  prefix : layer_times;  (* the first [counted] operations *)
  prefix_counters : (string * int) list;
      (* work counters over the first [counted] operations: they depend
         on the seed only, never on how fast the run went *)
  t_ops : int;
  t_failed : int;
  t_weight_sum : float;
  t_mismatches : int;
      (* instances where the best of the three timed parts did not equal
         Combine.solve's weight *)
}

let timed acc f =
  let t0 = now () in
  let r = f () in
  acc (now () -. t0);
  r

(* The three parts exactly as [Combine.solve_report] runs them with the
   default configuration, each timed through its own public entry point. *)
let run_parts lt path tasks =
  let cfg = Combine.default_config in
  let tasks =
    List.filter (fun (j : Task.t) -> j.Task.demand <= Path.bottleneck_of path j) tasks
  in
  let split =
    timed (fun d -> lt.classify <- lt.classify +. d) @@ fun () ->
    Core.Classify.split3 path ~delta:cfg.Combine.delta
      ~large_frac:(1.0 -. (2.0 *. cfg.Combine.beta))
      tasks
  in
  let q = Combine.q_of_beta cfg.Combine.beta in
  let ell = Sap.Almost_uniform.ell_for_eps ~eps:cfg.Combine.eps ~q in
  let small =
    timed (fun d -> lt.small <- lt.small +. d) @@ fun () ->
    Sap.Small.strip_pack ~rounding:cfg.Combine.rounding
      ~prng:(Util.Prng.create cfg.Combine.seed)
      path split.Core.Classify.small
  in
  let medium =
    timed (fun d -> lt.medium <- lt.medium +. d) @@ fun () ->
    (Sap.Almost_uniform.run ~ell ~q ?max_states:cfg.Combine.max_states path
       split.Core.Classify.medium)
      .Sap.Almost_uniform.solution
  in
  let large =
    timed (fun d -> lt.large <- lt.large +. d) @@ fun () ->
    Sap.Large.solve path split.Core.Classify.large
  in
  let w = Core.Solution.sap_weight in
  List.fold_left
    (fun best s -> if w s > w best then s else best)
    small [ medium; large ]

let zero () =
  { parse = 0.0; classify = 0.0; small = 0.0; medium = 0.0; large = 0.0; checker = 0.0 }

let add_into dst src =
  dst.parse <- dst.parse +. src.parse;
  dst.classify <- dst.classify +. src.classify;
  dst.small <- dst.small +. src.small;
  dst.medium <- dst.medium +. src.medium;
  dst.large <- dst.large +. src.large;
  dst.checker <- dst.checker +. src.checker

let counter_names =
  [
    "elevator.dp_states"; "elevator.candidate_heights"; "elevator.truncations";
    "almost_uniform.bands"; "almost_uniform.inexact_bands"; "simplex.iterations";
    "simplex.pivots_cells_touched"; "lp_rounding.trials"; "rect_mwis.branch_nodes";
    "large.rectangles";
  ]

let counters () =
  let snap = Obs.Metrics.snapshot () in
  List.map
    (fun n -> (n, Option.value ~default:0 (List.assoc_opt n snap.Obs.Metrics.counters)))
    counter_names

(* Combine.solve runs with collection off (as the program runs by
   default); the timed parts run with it on, so the counters describe
   exactly the work the parts did. *)
let run_traced ?max_ops spec texts ~seconds =
  let all = zero () and prefix = zero () in
  let ops = ref 0 and failed = ref 0 and mismatches = ref 0 and weight = ref 0.0 in
  let prefix_counters = ref [] in
  Obs.Metrics.reset ();
  let deadline = now () +. seconds in
  let more () =
    match max_ops with
    | Some m -> !ops < m
    | None -> now () < deadline || !ops < spec.counted
  in
  while more () do
    let i = !ops in
    incr ops;
    let lt = zero () in
    (match
       let path, tasks =
         timed (fun d -> lt.parse <- d) (fun () -> parse texts.(i mod Array.length texts))
       in
       let combined = Core.Solution.sap_weight (Combine.solve path tasks) in
       Obs.Metrics.enable ();
       let best = Fun.protect ~finally:Obs.Metrics.disable (fun () -> run_parts lt path tasks) in
       let verdict = timed (fun d -> lt.checker <- d) (fun () -> check path tasks best) in
       let w = Core.Solution.sap_weight best in
       if not (Float.equal w combined) then begin
         incr mismatches;
         Printf.eprintf "perfbench: instance %d: best part %.17g <> combine %.17g\n" i w
           combined
       end;
       Result.map (fun () -> w) verdict
     with
    | Ok w -> if i < spec.counted then weight := !weight +. w
    | Error m ->
        incr failed;
        prerr_endline ("perfbench: instance " ^ string_of_int i ^ ": " ^ m)
    | exception e ->
        incr failed;
        prerr_endline
          ("perfbench: instance " ^ string_of_int i ^ ": " ^ Printexc.to_string e));
    add_into all lt;
    if i < spec.counted then add_into prefix lt;
    if i + 1 = spec.counted then prefix_counters := counters ()
  done;
  if !prefix_counters = [] then prefix_counters := counters ();
  {
    all;
    prefix;
    prefix_counters = !prefix_counters;
    t_ops = !ops;
    t_failed = !failed;
    t_weight_sum = !weight;
    t_mismatches = !mismatches;
  }
