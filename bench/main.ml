(* The experiment harness: regenerates every figure (F1-F8) and every
   theorem's empirical ratio table (T1-T5, A1, L3, S2, RHO), then the
   bechamel runtime suite (S1).  EXPERIMENTS.md records the output of a
   reference run next to the paper's claims.

   Run with:  dune exec bench/main.exe
   Pass "quick" to skip the bechamel timing section.
   Pass "--stats-json FILE" to collect the solver-internal counters
   (sap-stats v3, the same schema sap_cli emits) across the whole run and
   write them to FILE: DP state counts, simplex iterations and rounding
   losses, not just wall time — what bench-diff compares against
   bench/baseline.json.  Collection stays off without the flag, keeping
   the timed sections (S1) unperturbed.
   Pass "--compact" to drop the span trees from that report (metric
   summaries only — the form committed as bench/baseline.json; bench-diff
   ignores spans either way). *)

let stats_json_target () =
  let n = Array.length Sys.argv in
  let rec scan i =
    if i >= n then None
    else if Sys.argv.(i) = "--stats-json" then
      if i + 1 < n then Some Sys.argv.(i + 1)
      else begin
        (* A trailing flag silently dropping the report is worse than
           refusing to run. *)
        prerr_endline "error: --stats-json requires a file argument";
        prerr_endline "usage: bench/main.exe [quick] [--stats-json FILE]";
        exit 2
      end
    else scan (i + 1)
  in
  scan 1

let () =
  let quick = Array.exists (( = ) "quick") Sys.argv in
  let compact = Array.exists (( = ) "--compact") Sys.argv in
  let stats_json = stats_json_target () in
  if stats_json <> None then
    if compact then Obs.Metrics.enable () else Obs.Report.enable_all ();
  let t0 = Obs.Clock.monotonic_seconds () in
  print_endline "SAP reproduction — experiment harness";
  print_endline "paper: Bar-Yehuda, Beder, Rawitz — A Constant Factor Approximation";
  print_endline "       Algorithm for the Storage Allocation Problem (SPAA'13 / Algorithmica'16)";
  F_experiments.run_all ();
  T_experiments.run_all ();
  Abl_experiments.run_all ();
  Dsa_experiments.run ();
  Ufpp_experiments.run ();
  Worst_experiments.run ();
  Scale_experiments.run ();
  Lp_experiments.run ();
  Srv_experiments.run ();
  Lg_experiments.run ();
  Rt_experiments.run ();
  Cr_experiments.run ();
  Rd_experiments.run ();
  if not quick then Timing.run ();
  let elapsed = Obs.Clock.monotonic_seconds () -. t0 in
  Printf.printf "\nall experiments completed in %.1fs\n" elapsed;
  match stats_json with
  | None -> ()
  | Some file ->
      let report =
        Obs.Report.build
          ~extra:
            [
              ("command", Obs.Json.String "bench");
              ("quick", Obs.Json.Bool quick);
              ("time_seconds", Obs.Json.Float elapsed);
            ]
          ~include_spans:(not compact) ()
      in
      Obs.Report.write_file file report;
      Printf.printf "wrote solver metrics to %s\n" file
