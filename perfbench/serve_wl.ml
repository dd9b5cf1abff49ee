(* serve-mix: one `sap_cli serve` driven from this process over
   [connections] pipelined connections (no more than the machine's cores).

   The closed phase keeps [windows] requests in flight per connection and
   gives the latency, throughput and weight figures.  The open phase is a
   rate ladder: the main thread paces requests at due times drawn in
   advance, whatever happened to earlier ones, and one reader thread per
   connection collects answers; latency runs from when a request was due.
   It gives max_rps_p99 and the generator figures.  Answers are parsed and
   re-verified after each phase, off the timed path. *)

module P = Sap_server.Protocol
module Task = Core.Task
module Path = Core.Path

let now = Obs.Clock.monotonic_seconds

(* Both phases run their three load points [lo], [mid], [hi] in [passes]
   interleaved passes, each point for its share of a pass, so slow drift
   of the host's speed falls on all three alike. *)
let names = [| "lo"; "mid"; "hi" |]

let shares = [| 0.4; 0.2; 0.4 |]

let passes = 5

(* The closed phase takes this share of the run, the open ladder the rest. *)
let closed_share = 0.6

(* Closed-phase load points: requests in flight per connection. *)
let windows = [| 1; 4; 8 |]

(* Open-phase load points, requests/s.  A host stall of ~100 ms holds up
   every request queued behind the stalled one on its connection, so one
   stall moves a step's p99; a step's p99 is the median of its per-pass
   p99s, which a single stalled pass cannot move. *)
let rates = [| 600.0; 800.0; 1000.0 |]

(* The closed phase cycles through a stream this long: more fresh keys
   than the cache holds come between two uses of one, so they miss every
   time. *)
let cycle = 8000

(* weight_sum covers the first [weighed] closed-phase requests, which
   even a few-second run answers. *)
let weighed = 4000

(* max_rps_p99 counts a step only if its p99 latency is within this limit
   (ms), nothing was lost or failed, every pass drained its backlog within
   the limit after its last send, and the generator kept up. *)
let p99_limit_ms = 250.0

(* A pass of a step whose generator sent its p99 request later than this
   (ms) after it was due did not offer the rate it claims: it is not a
   measurement.  A step needs a majority of valid passes.  On a two-core
   machine the server's domains can keep the pacer off a core for a few
   ms, which is not falling behind. *)
let lag_limit_ms = 20.0

let connections = 2

let hot_solves = 96

let hot_rounds = 16

let warm_fresh = 32

(* One request in [timeout_every] carries a generous deadline, which puts
   Pool.await_until on the measured path without ever firing. *)
let timeout_every = 4

let timeout_ms = 60_000

type kind = Hot_solve | Hot_round | Fresh_light | Fresh_medium | Fresh_round

let is_round = function Hot_round | Fresh_round -> true | _ -> false

type req = { kind : kind; path : Path.t; tasks : Task.t list; frame : string }

let render ~id ~kind ~timeout (path, tasks) =
  let request =
    if is_round kind then
      P.Round_solve { id; algorithm = "bands"; cache = true; path; tasks }
    else
      P.Solve
        { id; params = { P.default_solve_params with P.timeout_ms = timeout }; path; tasks }
  in
  { kind; path; tasks; frame = P.request_to_string request }

(* Independent users: arrivals in each step of each pass form a Poisson
   process at the step's rate, drawn from the seed.  Returns the segments
   in run order: (step, due times in seconds from the segment's start). *)
let schedule ~seed ~seconds =
  let prng = Inputs.stream ~seed ~salt:29 0 in
  let per_pass = seconds /. float_of_int passes in
  Array.concat
    (List.init passes (fun _ ->
         Array.mapi
           (fun si rate ->
             let length = per_pass *. shares.(si) in
             let rec arrivals t acc =
               let t = t -. (log (1.0 -. Util.Prng.float prng 1.0) /. rate) in
               if t >= length then Array.of_list (List.rev acc) else arrivals t (t :: acc)
             in
             (si, arrivals 0.0 []))
           rates))

(* The request stream: 72% repeat a hot set far smaller than the server's
   1024-entry cache (hits); the rest are fresh keys, more of them over a
   run than the cache holds (inserts and evictions).  Fresh solves are
   light mixed instances or medium-only instances that reach the
   Elevator; one request in eight is a round-solve. *)
let hot_sets ~seed =
  ( Array.init hot_solves (fun i -> Inputs.light_instance ~seed ~salt:3 i),
    Array.init hot_rounds (fun i -> Inputs.round_instance ~seed ~salt:6 i) )

(* [phase] keeps the fresh keys of the closed and the open phase apart,
   so neither phase finds the other's fresh answers in the cache. *)
let stream ~seed ~phase ~total =
  let prng = Inputs.stream ~seed ~salt:(20 + phase) 0 in
  let salt k = k + (10 * phase) in
  let hot_s, hot_r = hot_sets ~seed in
  let fresh = Array.make 3 0 in
  let next slot = let i = fresh.(slot) in fresh.(slot) <- i + 1; i in
  Array.init total (fun id ->
      let roll = Util.Prng.int prng 100 in
      let timeout = if Util.Prng.int prng timeout_every = 0 then Some timeout_ms else None in
      let kind, inst =
        if roll < 68 then (Hot_solve, hot_s.(Util.Prng.int prng hot_solves))
        else if roll < 72 then (Hot_round, hot_r.(Util.Prng.int prng hot_rounds))
        else if roll < 86 then (Fresh_light, Inputs.light_instance ~seed ~salt:(salt 5) (next 0))
        else if roll < 96 then (Fresh_medium, Inputs.medium_rich_instance ~seed ~salt:(salt 4) (next 1))
        else (Fresh_round, Inputs.round_instance ~seed ~salt:(salt 7) (next 2))
      in
      render ~id ~kind ~timeout inst)

(* ---------- verification ---------- *)

type outcome =
  | Served of { weight : float; fresh : bool; solve_ms : float }
  | Broken of string

(* One closed-loop answer: [k] counts requests sent in the run; the
   request is [k mod cycle] of the closed stream. *)
type answer = { k : int; latency_ms : float; lines : string list }

(* Parse an answer and re-verify it.  With [memo], an answer whose body
   equals one already verified for the same request position is the same
   solution of the same instance, so the checker runs once per distinct
   (position, body). *)
let verify ?memo (r : req) lines =
  let checked check =
    match (memo, lines) with
    | Some (table, pos), _ :: body -> (
        match Hashtbl.find_opt table (pos, body) with
        | Some verdict -> verdict
        | None ->
            let verdict = check () in
            Hashtbl.replace table (pos, body) verdict;
            verdict)
    | _ -> check ()
  in
  match P.response_of_lines ~tasks_for:(fun _ -> Some r.tasks) lines with
  | Error m -> Broken ("unparseable response: " ^ m)
  | Ok (P.Solved { summary; solution; _ }) when not (is_round r.kind) -> (
      match checked (fun () -> Solve_wl.check r.path r.tasks solution) with
      | Error m -> Broken m
      | Ok () ->
          Served
            {
              weight = Core.Solution.sap_weight solution;
              fresh = not summary.P.cached;
              solve_ms = summary.P.time_ms;
            })
  | Ok (P.Round_solved { summary; rounds; _ }) when is_round r.kind -> (
      let check () =
        Result.bind (Round.Instance.create r.path r.tasks) (fun inst ->
            Round.Checker.check inst rounds)
      in
      match checked check with
      | Error m -> Broken m
      | Ok () ->
          Served { weight = 0.0; fresh = not summary.P.r_cached; solve_ms = summary.P.r_time_ms })
  | Ok (P.Failed { code; message; _ }) ->
      Broken (P.error_code_to_string code ^ ": " ^ message)
  | Ok (P.Timed_out _) -> Broken "timeout"
  | Ok _ -> Broken "unexpected response"

(* ---------- set-up ---------- *)

type setup = {
  server : Serve_proc.t;
  closed : req array;  (* cycled by the closed phase *)
  segments : (int * float array) array;  (* the open phase's schedule *)
  reqs : req array;  (* the open phase's requests, one per due time *)
}

(* Generate both streams, start the server and send every hot instance
   once so the measured run starts with them cached.  A few dozen fresh
   solves that are in neither stream warm the solver paths and the heap. *)
let setup ~seed ~seconds =
  let segments = schedule ~seed ~seconds:(seconds *. (1.0 -. closed_share)) in
  let total = Array.fold_left (fun a (_, d) -> a + Array.length d) 0 segments in
  let reqs = stream ~seed ~phase:1 ~total in
  let closed = stream ~seed ~phase:0 ~total:cycle in
  let server = Serve_proc.start ~workers:connections in
  let c = Serve_proc.connect server.Serve_proc.socket in
  let warm kind inst =
    let r = render ~id:0 ~kind ~timeout:None inst in
    Serve_proc.send c r.frame;
    match Option.map (verify r) (Serve_proc.read_frame c) with
    | Some (Served _) -> ()
    | Some (Broken m) -> failwith ("warm-up: " ^ m)
    | None -> failwith "warm-up: connection closed"
  in
  let hot_s, hot_r = hot_sets ~seed in
  Fun.protect ~finally:(fun () -> Serve_proc.close c) (fun () ->
      Array.iter (warm Hot_solve) hot_s;
      Array.iter (warm Hot_round) hot_r;
      for i = 0 to warm_fresh - 1 do
        warm Fresh_light (Inputs.light_instance ~seed ~salt:8 i);
        warm Fresh_medium (Inputs.medium_rich_instance ~seed ~salt:9 i)
      done);
  { server; closed; segments; reqs }

(* ---------- the closed loop ---------- *)

(* Each connection keeps [window] requests in flight and sends the next
   one as soon as an answer arrives, so a stalled request delays at most
   its window, whatever the host does. *)
let drive conn ~(reqs : req array) ~next ~window ~deadline =
  let inflight = Queue.create () in
  let answers = ref [] and lost = ref 0 in
  let send () =
    let k = Atomic.fetch_and_add next 1 in
    Serve_proc.send conn reqs.(k mod Array.length reqs).frame;
    Queue.push (k, now ()) inflight
  in
  (try
     for _ = 1 to window do send () done;
     while not (Queue.is_empty inflight) do
       match Serve_proc.read_frame conn with
       | None ->
           lost := !lost + Queue.length inflight;
           Queue.clear inflight
       | Some lines ->
           let t = now () in
           let k, t0 = Queue.pop inflight in
           answers := { k; latency_ms = (t -. t0) *. 1000.0; lines } :: !answers;
           if t < deadline then send ()
     done
   with Unix.Unix_error _ | Sys_error _ -> lost := !lost + Queue.length inflight);
  (!answers, !lost)

type level = {
  window : int;
  mutable answers : answer list;
  mutable lost : int;
  mutable busy_s : float;  (* summed over passes *)
}

let run_closed (s : setup) ~seconds =
  let per_pass = seconds *. closed_share /. float_of_int passes in
  let conns = Array.init connections (fun _ -> Serve_proc.connect s.server.Serve_proc.socket) in
  let levels = Array.map (fun window -> { window; answers = []; lost = 0; busy_s = 0.0 }) windows in
  let next = Atomic.make 0 in
  Fun.protect ~finally:(fun () -> Array.iter Serve_proc.close conns) @@ fun () ->
  for _ = 1 to passes do
    Array.iteri
      (fun si level ->
        let t0 = now () in
        let deadline = t0 +. (per_pass *. shares.(si)) in
        let results = Array.make connections ([], 0) in
        let threads =
          Array.mapi
            (fun c conn ->
              Thread.create
                (fun () ->
                  results.(c) <-
                    drive conn ~reqs:s.closed ~next ~window:level.window ~deadline)
                ())
            conns
        in
        Array.iter Thread.join threads;
        level.busy_s <- level.busy_s +. (now () -. t0);
        Array.iter
          (fun (answers, lost) ->
            level.answers <- List.rev_append answers level.answers;
            level.lost <- level.lost + lost)
          results)
      levels
  done;
  levels

(* ---------- the open loop ---------- *)

type segment = {
  step : int;  (* index into [rates] *)
  first : int;  (* request ids [first, first + count) *)
  count : int;
  lag_ms : Sample.t;  (* actual send - due *)
  drain_ms : float;  (* last due -> last response *)
  span_s : float;  (* first due -> last response *)
}

type run = {
  segs : segment array;
  due : float array;
  recv : float array;  (* nan: never answered *)
  outcomes : outcome array;
}

let header_id lines =
  match lines with
  | header :: _ -> (
      match String.split_on_char ' ' header with
      | _ :: _ :: id :: _ -> int_of_string_opt id
      | _ -> None)
  | [] -> None

let reader conn ~recv ~lines () =
  let rec loop () =
    match Serve_proc.read_frame conn with
    | None -> ()
    | Some frame ->
        let t = now () in
        (match header_id frame with
        | Some id when id >= 0 && id < Array.length recv ->
            lines.(id) <- frame;
            recv.(id) <- t
        | _ -> ());
        loop ()
  in
  try loop () with Unix.Unix_error _ | Sys_error _ -> ()

let sleep_until t =
  let d = t -. now () in
  if d > 0.0 then Unix.sleepf d

let run_open (s : setup) =
  let n = Array.length s.reqs in
  let due = Array.make n nan and recv = Array.make n nan and lines = Array.make n [] in
  let conns = Array.init connections (fun _ -> Serve_proc.connect s.server.Serve_proc.socket) in
  let readers = Array.map (fun c -> Thread.create (reader c ~recv ~lines) ()) conns in
  let first = ref 0 in
  let segs =
    Array.map
      (fun (step, offsets) ->
        let count = Array.length offsets and base = !first in
        first := base + count;
        let lag_ms = Sample.create () in
        let t0 = now () +. 0.005 in
        for j = 0 to count - 1 do
          let k = base + j in
          let d = t0 +. offsets.(j) in
          due.(k) <- d;
          sleep_until d;
          Sample.add lag_ms ((now () -. d) *. 1000.0);
          Serve_proc.send conns.(k mod connections) s.reqs.(k).frame
        done;
        (* Wait for the segment's backlog to drain before the next one. *)
        let deadline = now () +. 30.0 in
        let pending () =
          let p = ref false in
          for k = base to base + count - 1 do
            if Float.is_nan recv.(k) then p := true
          done;
          !p
        in
        while pending () && now () < deadline do Unix.sleepf 0.002 done;
        let last = ref t0 in
        for k = base to base + count - 1 do
          if not (Float.is_nan recv.(k)) then last := Float.max !last recv.(k)
        done;
        let last_due = if count = 0 then t0 else due.(base + count - 1) in
        {
          step;
          first = base;
          count;
          lag_ms;
          drain_ms = Float.max 0.0 ((!last -. last_due) *. 1000.0);
          span_s = !last -. t0;
        })
      s.segments
  in
  (* Half-close: the server answers what it has, then closes, which ends
     each reader; a reader still blocked after 30 s is cut off. *)
  Array.iter
    (fun c -> try Unix.shutdown c.Serve_proc.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
    conns;
  let finished = Atomic.make 0 in
  let waiter =
    Thread.create
      (fun () -> Array.iter Thread.join readers; Atomic.set finished 1)
      ()
  in
  let deadline = now () +. 30.0 in
  while Atomic.get finished = 0 && now () < deadline do Unix.sleepf 0.01 done;
  Array.iter Serve_proc.close conns;
  Thread.join waiter;
  let outcomes =
    Array.mapi
      (fun k r ->
        if Float.is_nan recv.(k) then Broken "lost: no response" else verify r lines.(k))
      s.reqs
  in
  { segs; due; recv; outcomes }

(* ---------- metrics ---------- *)

let latency_ms run k = (run.recv.(k) -. run.due.(k)) *. 1000.0

type step_summary = {
  rate : float;
  latency : Sample.t;  (* ms, verified responses of every pass *)
  p99 : float;  (* median over the valid passes of each pass's p99 *)
  pass_p99 : float list;
  sent : int;
  ok : int;
  bad : int;
  lag_ms : Sample.t;
  valid : bool;  (* a majority of the passes kept up *)
  meets : bool;
  span_s : float;  (* summed over passes *)
}

let pass_valid (seg : segment) = Sample.percentile seg.lag_ms 0.99 <= lag_limit_ms

let summarize run =
  Array.mapi
    (fun si rate ->
      let segs = List.filter (fun seg -> seg.step = si) (Array.to_list run.segs) in
      let latency = Sample.create () in
      let ok = ref 0 and bad = ref 0 in
      let pass_p99 =
        List.filter_map
          (fun seg ->
            let l = Sample.create () in
            for k = seg.first to seg.first + seg.count - 1 do
              match run.outcomes.(k) with
              | Served _ ->
                  incr ok;
                  Sample.add l (latency_ms run k);
                  Sample.add latency (latency_ms run k)
              | Broken _ -> incr bad
            done;
            if pass_valid seg then Some (Sample.percentile l 0.99) else None)
          segs
      in
      let valid = 2 * List.length pass_p99 > List.length segs in
      let p99 = Sample.median_of pass_p99 in
      let drained = List.for_all (fun seg -> seg.drain_ms <= p99_limit_ms) segs in
      {
        rate;
        latency;
        p99;
        pass_p99;
        sent = List.fold_left (fun a seg -> a + seg.count) 0 segs;
        ok = !ok;
        bad = !bad;
        lag_ms = Sample.concat (List.map (fun (seg : segment) -> seg.lag_ms) segs);
        valid;
        meets = valid && !bad = 0 && drained && p99 <= p99_limit_ms;
        span_s = List.fold_left (fun a (seg : segment) -> a +. seg.span_s) 0.0 segs;
      })
    rates

(* The closed phase's figures for one load point. *)
type level_summary = {
  l_window : int;
  l_latency : Sample.t;  (* ms, every verified answer *)
  l_sent : int;
  l_answers : int;
  l_ok : int;
  l_bad : int;  (* rejected, failed or lost *)
  l_busy_s : float;
}

type closed_summary = {
  levels : level_summary array;
  fresh_latency : Sample.t;  (* ms, answers that missed the cache *)
  fresh_solve_ms : Sample.t;  (* the server's solve time of those *)
  round_solve_ms : Sample.t;
  weighed_sum : float;  (* requests k < weighed: fixed by the seed *)
  weighed_answered : int;
}

let summarize_closed (s : setup) levels =
  let memo = Hashtbl.create 4096 in
  let fresh_latency = Sample.create () and fresh_solve_ms = Sample.create () in
  let round_solve_ms = Sample.create () in
  let weight = ref 0.0 and answered = ref 0 in
  let summaries =
    Array.map
      (fun level ->
        let latency = Sample.create () and ok = ref 0 and bad = ref 0 in
        List.iter
          (fun a ->
            let pos = a.k mod Array.length s.closed in
            let r = s.closed.(pos) in
            let outcome =
              if header_id a.lines <> Some pos then Broken "answer out of order"
              else verify ~memo:(memo, pos) r a.lines
            in
            match outcome with
            | Served { weight = w; fresh; solve_ms } ->
                incr ok;
                Sample.add latency a.latency_ms;
                if a.k < weighed then begin
                  weight := !weight +. w;
                  incr answered
                end;
                if fresh then begin
                  Sample.add fresh_latency a.latency_ms;
                  Sample.add fresh_solve_ms solve_ms;
                  if is_round r.kind then Sample.add round_solve_ms solve_ms
                end
            | Broken m ->
                incr bad;
                Printf.eprintf "perfbench: closed request %d: %s\n" a.k m)
          level.answers;
        {
          l_window = level.window;
          l_latency = latency;
          l_sent = List.length level.answers + level.lost;
          l_answers = List.length level.answers;
          l_ok = !ok;
          l_bad = !bad + level.lost;
          l_busy_s = level.busy_s;
        })
      levels
  in
  {
    levels = summaries;
    fresh_latency;
    fresh_solve_ms;
    round_solve_ms;
    weighed_sum = !weight;
    weighed_answered = !answered;
  }
