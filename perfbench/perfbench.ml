(* The repository benchmark.  See perfbench/README.md.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --selfcheck [--seed N]

   A plain run (--trace 0) prints every end-to-end metric; a traced run
   (--trace 1) prints every per-layer metric.  Both print one JSON object
   as the last line of stdout. *)

let end_to_end =
  [
    ("setup_s", "s"); ("instances_per_s", "1/s"); ("solve_ms_p50", "ms");
    ("solve_ms_p90", "ms"); ("weight_sum", "weight"); ("failed_share", "share");
    ("peak_rss_mb", "MB"); ("latency_ms_p50.lo", "ms"); ("latency_ms_p99.lo", "ms");
    ("latency_ms_p50.hi", "ms"); ("latency_ms_p99.hi", "ms"); ("max_rps_p99", "1/s");
    ("resolve_ms_p50", "ms"); ("resolve_ms_p99", "ms"); ("events_per_s", "1/s");
  ]

let per_layer =
  [
    ("sap.medium_ms", "ms"); ("elevator.dp_states", "count");
    ("elevator.candidate_heights", "count"); ("elevator.truncations", "count");
    ("almost_uniform.exact_band_share", "share"); ("sap.medium_ns_per_dp_state", "ns");
    ("sap.small_ms", "ms"); ("simplex.iterations", "count");
    ("simplex.pivots_cells_touched", "count"); ("lp_rounding.trials", "count");
    ("sap.small_ns_per_pivot_cell", "ns"); ("sap.large_ms", "ms");
    ("rect_mwis.branch_nodes", "count"); ("large.rectangles", "count");
    ("sap.large_ns_per_branch_node", "ns"); ("io.parse_ms", "ms");
    ("core.classify_ms", "ms"); ("core.checker_ms", "ms"); ("protocol.parse_us", "us");
    ("protocol.print_us", "us"); ("fingerprint.key_us", "us"); ("cache.lookup_us", "us");
    ("cache.insert_us", "us"); ("server.cache.hits", "count");
    ("server.cache.misses", "count"); ("server.cache.evictions", "count");
    ("cache.hit_share", "share"); ("server.latency.queue.mean_ms", "ms");
    ("server.latency.queue.count", "count"); ("server.latency.solve.mean_ms", "ms");
    ("server.latency.total.hit.mean_ms", "ms"); ("server.latency.total.miss.mean_ms", "ms");
    ("server.queue_depth.max", "count"); ("transport.overhead_ms", "ms");
    ("round.solve_ms", "ms"); ("round.bands.classes", "count");
    ("round.bands.dissolved", "count"); ("session.resolve_seconds.mean_ms", "ms");
    ("session.bands_repacked", "count"); ("session.bands_reused", "count");
    ("session.reuse_share", "share"); ("simplex.warm_restarts", "count");
    ("simplex.warm_pivots_saved", "count"); ("loadgen.send_lag_ms_p99", "ms");
    ("loadgen.lo.sent", "count"); ("loadgen.lo.succeeded", "count");
    ("loadgen.lo.failed", "count"); ("loadgen.mid.sent", "count");
    ("loadgen.mid.succeeded", "count"); ("loadgen.mid.failed", "count");
    ("loadgen.hi.sent", "count"); ("loadgen.hi.succeeded", "count");
    ("loadgen.hi.failed", "count");
  ]

let workloads = [ "solve-medium"; "serve-mix"; "session-churn" ]

(* What one plain run measured: named values, percentiles with the raw
   samples they are taken from, and operation counts. *)
type result = {
  values : (string * float) list;
  samples : (string * (Sample.t * float)) list;
  attempted : int;
  failed : int;
}

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The add-one estimate of the failure rate: 0 failures in n attempts
   reads 1/(n+1), never 0; the raw counts are the attempted/failed fields
   of the result. *)
let failed_share ~attempted ~failed =
  float_of_int (failed + 1) /. float_of_int (attempted + 1)

let self_rss () = Serve_proc.peak_rss_mb "self"

(* Set up [reps] times and keep the last; earlier set-ups are torn down.
   setup_s is their median. *)
let repeated_setup ~reps ~setup ~teardown =
  let times = ref [] and last = ref None in
  for r = 1 to reps do
    let t0 = Obs.Clock.monotonic_seconds () in
    let s = setup () in
    times := (Obs.Clock.monotonic_seconds () -. t0) :: !times;
    if r < reps then teardown s else last := Some s
  done;
  (Sample.median_of !times, Option.get !last)

(* ---------- solve-medium ---------- *)

let solve_plain spec ~seed ~seconds =
  let setup_s, texts =
    repeated_setup ~reps:3 ~setup:(fun () -> Solve_wl.setup spec ~seed) ~teardown:ignore
  in
  let r = Solve_wl.run_plain spec texts ~seconds in
  let ok = float_of_int (Sample.count r.Solve_wl.times) in
  let rate = ok /. r.Solve_wl.elapsed in
  let t = r.Solve_wl.times in
  {
    values =
      [
        ("setup_s", setup_s); ("instances_per_s", rate); ("weight_sum", r.Solve_wl.weight_sum);
        ("failed_share", failed_share ~attempted:r.Solve_wl.ops ~failed:r.Solve_wl.failed);
        ("peak_rss_mb", self_rss ()); ("max_rps_p99", rate);
        ("events_per_s", float_of_int r.Solve_wl.ops /. r.Solve_wl.elapsed);
      ];
    samples =
      [
        ("solve_ms_p50", (t, 0.5)); ("solve_ms_p90", (t, 0.9));
        ("latency_ms_p50.lo", (t, 0.5)); ("latency_ms_p99.lo", (t, 0.99));
        ("latency_ms_p50.hi", (t, 0.5)); ("latency_ms_p99.hi", (t, 0.99));
        ("resolve_ms_p50", (t, 0.5)); ("resolve_ms_p99", (t, 0.99));
      ];
    attempted = r.Solve_wl.ops;
    failed = r.Solve_wl.failed;
  }

let solve_layers (tr : Solve_wl.traced) =
  let n = float_of_int tr.Solve_wl.t_ops in
  let all = tr.Solve_wl.all and pre = tr.Solve_wl.prefix in
  let c name = float_of_int (List.assoc name tr.Solve_wl.prefix_counters) in
  let per_op x = 1000.0 *. x /. n in
  let bands = c "almost_uniform.bands" in
  [
    ("sap.medium_ms", per_op all.Solve_wl.medium);
    ("elevator.dp_states", c "elevator.dp_states");
    ("elevator.candidate_heights", c "elevator.candidate_heights");
    ("elevator.truncations", c "elevator.truncations");
    ("almost_uniform.exact_band_share", ratio (bands -. c "almost_uniform.inexact_bands") bands);
    ("sap.medium_ns_per_dp_state", ratio (1e9 *. pre.Solve_wl.medium) (c "elevator.dp_states"));
    ("sap.small_ms", per_op all.Solve_wl.small);
    ("simplex.iterations", c "simplex.iterations");
    ("simplex.pivots_cells_touched", c "simplex.pivots_cells_touched");
    ("lp_rounding.trials", c "lp_rounding.trials");
    ( "sap.small_ns_per_pivot_cell",
      ratio (1e9 *. pre.Solve_wl.small) (c "simplex.pivots_cells_touched") );
    ("sap.large_ms", per_op all.Solve_wl.large);
    ("rect_mwis.branch_nodes", c "rect_mwis.branch_nodes");
    ("large.rectangles", c "large.rectangles");
    ( "sap.large_ns_per_branch_node",
      ratio (1e9 *. pre.Solve_wl.large) (c "rect_mwis.branch_nodes") );
    ("io.parse_ms", per_op all.Solve_wl.parse);
    ("core.classify_ms", per_op all.Solve_wl.classify);
    ("core.checker_ms", per_op all.Solve_wl.checker);
  ]

let solve_traced ?max_ops spec ~seed ~seconds =
  let texts = Solve_wl.setup spec ~seed in
  let tr = Solve_wl.run_traced ?max_ops spec texts ~seconds in
  (tr, solve_layers tr)

(* ---------- serve-mix ---------- *)

(* Server counters and histogram sums accumulate from start-up; the
   traced run differences two scrapes so the numbers cover the measured
   loop only. *)
let stats_delta before after =
  let c name = Serve_proc.counter after name -. Serve_proc.counter before name in
  let h_count name = Serve_proc.hist_count after name -. Serve_proc.hist_count before name in
  let h_sum name =
    Serve_proc.number after [ "metrics"; "histograms"; name; "sum" ]
    -. Serve_proc.number before [ "metrics"; "histograms"; name; "sum" ]
  in
  let h_mean_ms name = ratio (1000.0 *. h_sum name) (h_count name) in
  (c, h_count, h_mean_ms)

let server_layers ~before ~after =
  let c, h_count, h_mean_ms = stats_delta before after in
  let hits = c "server.cache.hits" and misses = c "server.cache.misses" in
  let repacked = c "session.bands_repacked" and reused = c "session.bands_reused" in
  let bands = c "almost_uniform.bands" in
  [
    ("sap.medium_ms", h_mean_ms "combine.part_seconds.medium");
    ("elevator.dp_states", c "elevator.dp_states");
    ("elevator.candidate_heights", c "elevator.candidate_heights");
    ("elevator.truncations", c "elevator.truncations");
    ("almost_uniform.exact_band_share", ratio (bands -. c "almost_uniform.inexact_bands") bands);
    ("sap.small_ms", h_mean_ms "combine.part_seconds.small");
    ("simplex.iterations", c "simplex.iterations");
    ("simplex.pivots_cells_touched", c "simplex.pivots_cells_touched");
    ("lp_rounding.trials", c "lp_rounding.trials");
    ("sap.large_ms", h_mean_ms "combine.part_seconds.large");
    ("rect_mwis.branch_nodes", c "rect_mwis.branch_nodes");
    ("large.rectangles", c "large.rectangles");
    ("server.cache.hits", hits); ("server.cache.misses", misses);
    ("server.cache.evictions", c "server.cache.evictions");
    ("cache.hit_share", ratio hits (hits +. misses));
    ("server.latency.queue.mean_ms", h_mean_ms "server.latency.queue");
    ("server.latency.queue.count", h_count "server.latency.queue");
    ("server.latency.solve.mean_ms", h_mean_ms "server.latency.solve");
    ("server.latency.total.hit.mean_ms", h_mean_ms "server.latency.total.hit");
    ("server.latency.total.miss.mean_ms", h_mean_ms "server.latency.total.miss");
    ("server.queue_depth.max", Serve_proc.hist_max after "server.queue_depth");
    ("round.bands.classes", c "round.bands.classes");
    ("round.bands.dissolved", c "round.bands.dissolved");
    ("session.resolve_seconds.mean_ms", h_mean_ms "session.resolve_seconds");
    ("session.bands_repacked", repacked); ("session.bands_reused", reused);
    ("session.reuse_share", ratio reused (repacked +. reused));
    ("simplex.warm_restarts", c "simplex.warm_restarts");
    ("simplex.warm_pivots_saved", c "simplex.warm_pivots_saved");
  ]

let server_total_mean_ms ~before ~after =
  let _, _, h_mean_ms = stats_delta before after in
  h_mean_ms "server.latency.total"

(* Replay the run's frames through the codec, key and cache functions the
   server calls per request; each figure is a mean over all frames. *)
let codec_layers (reqs : Serve_wl.req array) =
  let module P = Sap_server.Protocol in
  let n = Array.length reqs in
  let per_op_us t count = ratio (1e6 *. t) (float_of_int count) in
  let time f =
    let t0 = Obs.Clock.monotonic_seconds () in
    let r = f () in
    (r, Obs.Clock.monotonic_seconds () -. t0)
  in
  let parsed, t_parse =
    time (fun () ->
        Array.map
          (fun (r : Serve_wl.req) ->
            match P.request_of_string r.Serve_wl.frame with
            | Ok q -> q
            | Error m -> failwith ("codec replay: " ^ m))
          reqs)
  in
  let _, t_print = time (fun () -> Array.map P.request_to_string parsed) in
  let key = function
    | P.Solve { params; path; tasks; _ } ->
        Sap_server.Fingerprint.solve_key ~problem:"sap" ~algorithm:params.P.algorithm
          ~seed:params.P.seed path tasks
    | P.Round_solve { algorithm; path; tasks; _ } ->
        Sap_server.Fingerprint.solve_key ~problem:"round" ~algorithm ~seed:0 path tasks
    | _ -> failwith "codec replay: unexpected request"
  in
  let keys, t_key = time (fun () -> Array.map key parsed) in
  let cache = Sap_server.Cache.create ~capacity:1024 in
  let t_find = ref 0.0 and t_add = ref 0.0 and adds = ref 0 in
  Array.iter
    (fun k ->
      let hit, dt = time (fun () -> Sap_server.Cache.find cache k) in
      t_find := !t_find +. dt;
      if hit = None then begin
        let (), dt = time (fun () -> Sap_server.Cache.add cache k ()) in
        t_add := !t_add +. dt;
        incr adds
      end)
    keys;
  [
    ("protocol.parse_us", per_op_us t_parse n);
    ("protocol.print_us", per_op_us t_print n);
    ("fingerprint.key_us", per_op_us t_key n);
    ("cache.lookup_us", per_op_us !t_find n);
    ("cache.insert_us", per_op_us !t_add !adds);
  ]

let serve_setup ~seed ~seconds =
  repeated_setup ~reps:3
    ~setup:(fun () -> Serve_wl.setup ~seed ~seconds)
    ~teardown:(fun s -> Serve_proc.stop s.Serve_wl.server)

let serve_run ~seed ~seconds ~trace =
  let module S = Serve_wl in
  let setup_s, s = serve_setup ~seed ~seconds in
  let server = s.S.server in
  Fun.protect ~finally:(fun () -> Serve_proc.stop server) @@ fun () ->
  let before = if trace then Some (Serve_proc.stats server) else None in
  let levels = S.run_closed s ~seconds in
  let run = S.run_open s in
  let after = if trace then Some (Serve_proc.stats server) else None in
  let rss = Serve_proc.peak_rss_mb (string_of_int server.Serve_proc.pid) in
  let closed = S.summarize_closed s levels in
  let steps = S.summarize run in
  let lo = closed.S.levels.(0) and hi = closed.S.levels.(Array.length closed.S.levels - 1) in
  let open_failed = Array.fold_left (fun a st -> a + st.S.bad) 0 steps in
  let open_sent = Array.fold_left (fun a st -> a + st.S.sent) 0 steps in
  let closed_bad = Array.fold_left (fun a l -> a + l.S.l_bad) 0 closed.S.levels in
  let closed_sent = Array.fold_left (fun a l -> a + l.S.l_sent) 0 closed.S.levels in
  let closed_answers = Array.fold_left (fun a l -> a + l.S.l_answers) 0 closed.S.levels in
  let closed_busy = Array.fold_left (fun a l -> a +. l.S.l_busy_s) 0.0 closed.S.levels in
  let attempted = open_sent + closed_sent and failed = open_failed + closed_bad in
  Array.iteri
    (fun k outcome ->
      match outcome with
      | S.Broken m -> Printf.eprintf "perfbench: open-loop request %d: %s\n" k m
      | S.Served _ -> ())
    run.S.outcomes;
  let max_rps =
    Array.fold_left
      (fun acc st -> if st.S.meets then float_of_int st.S.ok /. st.S.span_s else acc)
      0.0 steps
  in
  let incomplete =
    if closed.S.weighed_answered = S.weighed then []
    else
      [ Printf.sprintf "serve-mix: only %d of the first %d closed-loop requests were answered"
          closed.S.weighed_answered S.weighed ]
  in
  let invalid =
    List.filter_map
      (fun (name, st) ->
        if st.S.valid then None
        else
          Some
            (Printf.sprintf "serve-mix step %s (%.0f rps): the generator fell behind in most passes"
               name st.S.rate))
      [ ("lo", steps.(0)); ("hi", steps.(Array.length steps - 1)) ]
  in
  let layers =
    match (before, after) with
    | Some before, Some after ->
        let open_latency = Array.to_list (Array.map (fun st -> st.S.latency) steps) in
        let closed_latency = Array.to_list (Array.map (fun l -> l.S.l_latency) closed.S.levels) in
        let client_mean = Sample.mean (Sample.concat (open_latency @ closed_latency)) in
        let lags = Sample.concat (Array.to_list (Array.map (fun st -> st.S.lag_ms) steps)) in
        server_layers ~before ~after
        @ codec_layers (Array.append s.S.closed s.S.reqs)
        @ [
            ("transport.overhead_ms", client_mean -. server_total_mean_ms ~before ~after);
            ( "round.solve_ms",
              if Sample.count closed.S.round_solve_ms = 0 then 0.0
              else Sample.mean closed.S.round_solve_ms );
            ("loadgen.send_lag_ms_p99", Sample.percentile lags 0.99);
          ]
        @ List.concat
            (Array.to_list
               (Array.mapi
                  (fun i st ->
                    let name = S.names.(i) in
                    [
                      (Printf.sprintf "loadgen.%s.sent" name, float_of_int st.S.sent);
                      (Printf.sprintf "loadgen.%s.succeeded" name, float_of_int st.S.ok);
                      (Printf.sprintf "loadgen.%s.failed" name, float_of_int st.S.bad);
                    ])
                  steps))
    | _ -> []
  in
  Array.iteri
    (fun i l ->
      Printf.printf
        "closed %-3s %d in flight per connection: %d answers, %.1f/s, p50 %.3f ms, p99 %.3f ms\n"
        S.names.(i) l.S.l_window l.S.l_answers
        (float_of_int l.S.l_answers /. l.S.l_busy_s)
        (Sample.percentile l.S.l_latency 0.5)
        (Sample.percentile l.S.l_latency 0.99))
    closed.S.levels;
  Array.iteri
    (fun i st ->
      Printf.printf
        "open %-3s %5.0f rps: sent %d ok %d failed %d lag_p99 %.3f ms p50 %.3f ms \
         p99 %.3f ms (median of passes: %s)%s%s\n"
        S.names.(i) st.S.rate st.S.sent st.S.ok st.S.bad (Sample.percentile st.S.lag_ms 0.99)
        (Sample.percentile st.S.latency 0.5) st.S.p99
        (String.concat " " (List.map (Printf.sprintf "%.2f") st.S.pass_p99))
        (if st.S.valid then "" else " INVALID")
        (if st.S.meets then " meets-limit" else ""))
    steps;
  ( {
      values =
        [
          ("setup_s", setup_s);
          ("instances_per_s", float_of_int hi.S.l_ok /. hi.S.l_busy_s);
          ("weight_sum", closed.S.weighed_sum);
          ("failed_share", failed_share ~attempted ~failed);
          ("peak_rss_mb", rss); ("max_rps_p99", max_rps);
          ("events_per_s", float_of_int closed_answers /. closed_busy);
        ];
      samples =
        [
          ("solve_ms_p50", (closed.S.fresh_solve_ms, 0.5));
          ("solve_ms_p90", (closed.S.fresh_solve_ms, 0.9));
          ("latency_ms_p50.lo", (lo.S.l_latency, 0.5)); ("latency_ms_p99.lo", (lo.S.l_latency, 0.99));
          ("latency_ms_p50.hi", (hi.S.l_latency, 0.5)); ("latency_ms_p99.hi", (hi.S.l_latency, 0.99));
          ("resolve_ms_p50", (closed.S.fresh_latency, 0.5));
          ("resolve_ms_p99", (closed.S.fresh_latency, 0.99));
        ];
      attempted;
      failed;
    },
    layers,
    incomplete @ invalid )

(* ---------- session-churn ---------- *)

let churn_setup ~seed =
  repeated_setup ~reps:5
    ~setup:(fun () -> Churn_wl.setup ~seed)
    ~teardown:(fun s ->
      Array.iter Churn_wl.close s.Churn_wl.clients;
      Serve_proc.stop s.Churn_wl.server)

let churn_run ?max_resolves ~seed ~seconds ~trace () =
  let setup_s, s = churn_setup ~seed in
  let server = s.Churn_wl.server in
  Fun.protect ~finally:(fun () -> Serve_proc.stop server) @@ fun () ->
  let before = if trace then Some (Serve_proc.stats server) else None in
  let elapsed = Churn_wl.run ?max_resolves s ~seconds in
  let after = if trace then Some (Serve_proc.stats server) else None in
  let rss = Serve_proc.peak_rss_mb (string_of_int server.Serve_proc.pid) in
  let cl = Array.to_list s.Churn_wl.clients in
  let sum f = List.fold_left (fun a c -> a + f c) 0 cl in
  let events = sum (fun c -> c.Churn_wl.events) and resolves = sum (fun c -> c.Churn_wl.resolves) in
  let failed = sum (fun c -> c.Churn_wl.failed) in
  let event_ms = Sample.concat (List.map (fun c -> c.Churn_wl.event_ms) cl) in
  let resolve_ms = Sample.concat (List.map (fun c -> c.Churn_wl.resolve_ms) cl) in
  let solve_ms = Sample.concat (List.map (fun c -> c.Churn_wl.solve_ms) cl) in
  let weight = List.fold_left (fun a c -> a +. c.Churn_wl.weight) 0.0 cl in
  let layers =
    match (before, after) with
    | Some before, Some after ->
        server_layers ~before ~after
        @ [
            ( "transport.overhead_ms",
              Sample.mean event_ms -. server_total_mean_ms ~before ~after );
          ]
    | _ -> []
  in
  let events_per_s = float_of_int events /. elapsed in
  ( {
      values =
        [
          ("setup_s", setup_s); ("instances_per_s", float_of_int resolves /. elapsed);
          ("weight_sum", weight); ("failed_share", failed_share ~attempted:events ~failed);
          ("peak_rss_mb", rss); ("max_rps_p99", events_per_s); ("events_per_s", events_per_s);
        ];
      samples =
        [
          ("solve_ms_p50", (solve_ms, 0.5)); ("solve_ms_p90", (solve_ms, 0.9));
          ("latency_ms_p50.lo", (event_ms, 0.5)); ("latency_ms_p99.lo", (event_ms, 0.99));
          ("latency_ms_p50.hi", (event_ms, 0.5)); ("latency_ms_p99.hi", (event_ms, 0.99));
          ("resolve_ms_p50", (resolve_ms, 0.5)); ("resolve_ms_p99", (resolve_ms, 0.99));
        ];
      attempted = events;
      failed;
    },
    layers )

(* ---------- output ---------- *)

let emit_plain (r : result) problems =
  let e = Emit.create () in
  List.iter (fun p -> Emit.problem e "%s" p) problems;
  List.iter
    (fun (name, unit_) ->
      match (List.assoc_opt name r.values, List.assoc_opt name r.samples) with
      | Some v, _ -> Emit.add e name unit_ v
      | None, Some (samples, p) -> Emit.add_pct e name samples p
      | None, None -> Emit.problem e "metric %s was not measured" name)
    end_to_end;
  if r.failed > 0 then Emit.problem e "%d of %d operations failed" r.failed r.attempted;
  Emit.print e ~attempted:r.attempted ~failed:r.failed

(* Layers a workload does not pass through read 0. *)
let emit_traced ~attempted ~failed layers problems =
  let e = Emit.create () in
  List.iter (fun p -> Emit.problem e "%s" p) problems;
  List.iter
    (fun (name, unit_) ->
      Emit.add e name unit_ (Option.value ~default:0.0 (List.assoc_opt name layers)))
    per_layer;
  if failed > 0 then Emit.problem e "%d of %d operations failed" failed attempted;
  Emit.print e ~attempted ~failed

let run_workload ~workload ~seed ~seconds ~trace =
  match workload with
  | "solve-medium" ->
      let spec = Solve_wl.medium in
      if trace then begin
        let tr, layers = solve_traced spec ~seed ~seconds in
        let problems =
          if tr.Solve_wl.t_mismatches = 0 then []
          else
            [ Printf.sprintf "%d instances: best timed part <> Combine.solve" tr.Solve_wl.t_mismatches ]
        in
        emit_traced ~attempted:tr.Solve_wl.t_ops ~failed:tr.Solve_wl.t_failed layers problems
      end
      else emit_plain (solve_plain spec ~seed ~seconds) []
  | "serve-mix" ->
      let r, layers, invalid = serve_run ~seed ~seconds ~trace in
      if trace then emit_traced ~attempted:r.attempted ~failed:r.failed layers invalid
      else emit_plain r invalid
  | "session-churn" ->
      let r, layers = churn_run ~seed ~seconds ~trace () in
      if trace then emit_traced ~attempted:r.attempted ~failed:r.failed layers []
      else emit_plain r []
  | w ->
      Printf.eprintf "perfbench: unknown workload %S (have: %s)\n" w (String.concat ", " workloads);
      exit 2

(* ---------- self-check ---------- *)

(* Two traced passes at the smallest size with one seed must agree
   exactly on work counters, weight_sum and the served/cached split; the
   served stream is replayed closed-loop so the split cannot depend on
   timing.  The tracing overhead is the difference between a plain and a
   traced pass over the same operations. *)
let selfcheck ~seed =
  let ok = ref true in
  let verdict what good yes no =
    Printf.printf "%-52s %s\n%!" what (if good then yes else no);
    if not good then ok := false
  in
  let same what a b = verdict what (a = b) "repeats" "DIFFERS" in
  let ops = 40 in
  let spec = { Solve_wl.medium with Solve_wl.counted = ops } in
  let run () = fst (solve_traced ~max_ops:ops spec ~seed ~seconds:0.0) in
  let a = run () and b = run () in
  same "solve-medium work counters" a.Solve_wl.prefix_counters b.Solve_wl.prefix_counters;
  same "solve-medium weight_sum" a.Solve_wl.t_weight_sum b.Solve_wl.t_weight_sum;
  verdict "solve-medium best timed part = Combine.solve"
    (a.Solve_wl.t_mismatches = 0 && b.Solve_wl.t_mismatches = 0)
    "on every instance" "MISMATCH";
  let plain = Solve_wl.run_plain spec (Solve_wl.setup spec ~seed) ~seconds:0.0 in
  let traced_ms =
    let t = a.Solve_wl.all in
    1000.0
    *. (t.Solve_wl.parse +. t.Solve_wl.classify +. t.Solve_wl.small +. t.Solve_wl.medium
       +. t.Solve_wl.large +. t.Solve_wl.checker)
    /. float_of_int ops
  in
  Printf.printf "%-52s plain %.3f ms/op, traced parts %.3f ms/op, overhead %+.3f ms/op\n"
    "solve-medium tracing overhead" (Sample.mean plain.Solve_wl.times) traced_ms
    (traced_ms -. Sample.mean plain.Solve_wl.times);
  (* serve-mix: one cycle of the closed-phase stream, replayed one request
     at a time against a fresh server. *)
  let replay () =
    let s = Serve_wl.setup ~seed ~seconds:3.0 in
    let server = s.Serve_wl.server in
    Fun.protect ~finally:(fun () -> Serve_proc.stop server) @@ fun () ->
    let before = Serve_proc.stats server in
    let c = Serve_proc.connect server.Serve_proc.socket in
    let outcomes =
      Fun.protect ~finally:(fun () -> Serve_proc.close c) @@ fun () ->
      Array.map
        (fun (r : Serve_wl.req) ->
          Serve_proc.send c r.Serve_wl.frame;
          match Serve_proc.read_frame c with
          | Some lines -> Serve_wl.verify r lines
          | None -> Serve_wl.Broken "lost")
        s.Serve_wl.closed
    in
    let t0 = Obs.Clock.monotonic_seconds () in
    let after = Serve_proc.stats server in
    ignore (codec_layers s.Serve_wl.closed);
    let traced_extra = Obs.Clock.monotonic_seconds () -. t0 in
    let fresh = ref 0 and cached = ref 0 and broken = ref 0 and weight = ref 0.0 in
    Array.iter
      (function
        | Serve_wl.Served { weight = w; fresh = f; _ } ->
            weight := !weight +. w;
            if f then incr fresh else incr cached
        | Serve_wl.Broken _ -> incr broken)
      outcomes;
    let c, _, _ = stats_delta before after in
    let counters =
      List.map (fun n -> (n, c n))
        [ "server.cache.hits"; "server.cache.misses"; "server.cache.evictions";
          "elevator.dp_states"; "simplex.iterations"; "rect_mwis.branch_nodes";
          "round.bands.classes" ]
    in
    ((!fresh, !cached, !broken), !weight, counters, traced_extra)
  in
  let (split_a, w_a, c_a, extra) = replay () and (split_b, w_b, c_b, _) = replay () in
  let fresh, cached, broken = split_a in
  Printf.printf "serve-mix closed-loop replay: %d fresh, %d cached, %d failed\n" fresh cached broken;
  same "serve-mix served/cached split" split_a split_b;
  same "serve-mix weight_sum" w_a w_b;
  same "serve-mix server work counters" c_a c_b;
  Printf.printf
    "serve-mix tracing overhead: the measured loop is the same in both runs; the traced \
     run adds %.1f ms after it (stats scrape, codec replay of one cycle)\n"
    (1000.0 *. extra);
  let churn () =
    let r, layers = churn_run ~max_resolves:30 ~seed ~seconds:0.0 ~trace:true () in
    let keep = [ "session.bands_repacked"; "session.bands_reused"; "simplex.warm_restarts";
                 "simplex.warm_pivots_saved"; "simplex.iterations" ] in
    (List.assoc "weight_sum" r.values, r.attempted, r.failed,
     List.filter (fun (n, _) -> List.mem n keep) layers)
  in
  let (wa, ea, fa, la) = churn () and (wb, eb, fb, lb) = churn () in
  same "session-churn weight_sum" wa wb;
  same "session-churn events and failures" (ea, fa) (eb, fb);
  same "session-churn server work counters" la lb;
  if !ok then 0 else 1

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
  let check = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured loop");
      ("--trace", Arg.Set_int trace, "0|1 plain or traced run");
      ("--selfcheck", Arg.Set check, " repeatability check and tracing overhead");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  (* A signal ends the run through [exit], so at_exit stops the server. *)
  (match Sys.os_type with
  | "Unix" ->
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      List.iter
        (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
        [ Sys.sigterm; Sys.sigint ]
  | _ -> ());
  if !check then exit (selfcheck ~seed:!seed);
  if !workload = "" then begin
    prerr_endline "perfbench: --workload is required";
    exit 2
  end;
  if !seconds < 1.0 then begin
    prerr_endline "perfbench: --seconds must be at least 1";
    exit 2
  end;
  (* The verdict travels in the result's "correct" field; the exit code
     only reports whether a result was printed. *)
  ignore (run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))
