(* The result a run prints: one human-readable line per metric (name,
   value, unit and, for a percentile, its sample count), then one JSON
   object {correct, attempted, failed, metrics} as the last stdout line. *)

type metric = { name : string; value : float; unit_ : string; note : string }

type t = { mutable metrics : metric list; mutable problems : string list }

let create () = { metrics = []; problems = [] }

let add ?(note = "") t name unit_ value =
  t.metrics <- { name; value; unit_; note } :: t.metrics

(* A percentile with its sample count and how many samples lie beyond it. *)
let add_pct t name samples p =
  let note =
    Printf.sprintf "n=%d beyond=%d" (Sample.count samples) (Sample.beyond samples p)
  in
  add ~note t name "ms" (Sample.percentile samples p)

let problem t fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      t.problems <- m :: t.problems)
    fmt

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print t ~attempted ~failed =
  let metrics = List.rev t.metrics in
  List.iter
    (fun m ->
      Printf.printf "%-34s %18s %-6s %s\n" m.name (number m.value) m.unit_ m.note)
    metrics;
  let bad = List.filter (fun m -> not (Float.is_finite m.value)) metrics in
  List.iter (fun m -> problem t "metric %s is not a finite number" m.name) bad;
  let correct = t.problems = [] in
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (if Float.is_finite m.value then number m.value else "null")
             m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 attempted) failed body;
  correct
