(* session-churn: [sessions] closed-loop clients (no more than the
   machine's cores), each on its own connection to one `sap_cli serve`,
   each owning one online session.  A client replays its seed-determined
   add/remove/resize stream one delta at a time and asks for a resolve
   after every [resolve_every] events; every resolved solution is
   re-verified against the client's own view of the session's tasks. *)

module P = Sap_server.Protocol
module Task = Core.Task

let sessions = 2

let target_tasks = 480

let resolve_every = 8

(* Resolves per session whose verified weight makes up weight_sum, and
   the minimum each session runs. *)
let counted = 150

type client = {
  conn : Serve_proc.conn;
  churn : Inputs.churn;
  sid : int;
  mutable next_id : int;
  event_ms : Sample.t;  (* every delta and resolve, client round trip *)
  resolve_ms : Sample.t;  (* resolves only, client round trip *)
  solve_ms : Sample.t;  (* resolves only, server-side time-ms *)
  mutable events : int;
  mutable resolves : int;
  mutable failed : int;
  mutable weight : float;
}

let now = Obs.Clock.monotonic_seconds

let fresh_id c =
  let id = c.next_id in
  c.next_id <- id + 1;
  id

let fail c fmt =
  Printf.ksprintf
    (fun m ->
      c.failed <- c.failed + 1;
      prerr_endline ("perfbench: session-churn: " ^ m))
    fmt

let verify_solution c solution =
  Solve_wl.check c.churn.Inputs.c_path (Inputs.churn_live c.churn) solution

let timed_request c req =
  let live = Inputs.churn_live c.churn in
  let t0 = now () in
  let r = Serve_proc.request c.conn ~tasks_for:(fun _ -> Some live) req in
  let ms = (now () -. t0) *. 1000.0 in
  (r, ms)

let open_session ~seed ~socket i =
  let churn, base = Inputs.churn_base ~seed ~session:i ~target:target_tasks in
  let conn = Serve_proc.connect socket in
  let req = P.Session_open { id = 0; seed = 42; path = churn.Inputs.c_path; tasks = base } in
  match Serve_proc.request conn ~tasks_for:(fun _ -> Some base) req with
  | Ok (P.Session_reply { session; event = P.Sess_opened; solution; _ }) -> (
      match Solve_wl.check churn.Inputs.c_path base solution with
      | Ok () ->
          {
            conn; churn; sid = session; next_id = 1;
            event_ms = Sample.create (); resolve_ms = Sample.create ();
            solve_ms = Sample.create ();
            events = 0; resolves = 0; failed = 0; weight = 0.0;
          }
      | Error m -> failwith ("session-open returned a rejected solution: " ^ m))
  | Ok _ -> failwith "session-open: unexpected response"
  | Error m -> failwith ("session-open: " ^ m)

let delta c ev =
  let req =
    match ev with
    | Inputs.Add j -> P.Session_add { id = fresh_id c; session = c.sid; task = j }
    | Inputs.Remove id -> P.Session_remove { id = fresh_id c; session = c.sid; task_id = id }
    | Inputs.Resize _ -> assert false
  in
  let r, ms = timed_request c req in
  c.events <- c.events + 1;
  match r with
  | Ok (P.Session_reply { event = P.Sess_ack; _ }) -> Sample.add c.event_ms ms
  | Ok _ -> fail c "delta: unexpected response"
  | Error m -> fail c "delta: %s" m

let resolve c =
  let r, ms = timed_request c (P.Session_resolve { id = fresh_id c; session = c.sid; cold = false }) in
  c.events <- c.events + 1;
  match r with
  | Ok (P.Session_reply { event = P.Sess_resolved; summary = Some s; solution; _ }) -> (
      match verify_solution c solution with
      | Ok () ->
          Sample.add c.event_ms ms;
          Sample.add c.resolve_ms ms;
          Sample.add c.solve_ms s.P.s_time_ms;
          if c.resolves < counted then
            c.weight <- c.weight +. Core.Solution.sap_weight solution;
          c.resolves <- c.resolves + 1
      | Error m -> fail c "resolve returned a rejected solution: %s" m)
  | Ok _ -> fail c "resolve: unexpected response"
  | Error m -> fail c "resolve: %s" m

(* A resize is replayed as remove-then-add under the same id, as the
   session protocol has no resize verb. *)
let step c =
  match Inputs.next_event c.churn with
  | Inputs.Resize (id, _) ->
      let j = Hashtbl.find c.churn.Inputs.c_live id in
      delta c (Inputs.Remove id);
      delta c (Inputs.Add j)
  | ev -> delta c ev

let drive ?max_resolves c ~deadline () =
  let more () =
    match max_resolves with
    | Some m -> c.resolves < m && c.failed = 0
    | None -> (now () < deadline || c.resolves < counted) && c.failed < 100
  in
  try
    while more () do
      for _ = 1 to resolve_every do step c done;
      resolve c
    done
  with e -> fail c "client raised %s" (Printexc.to_string e)

let close c =
  (match
     Serve_proc.request c.conn ~tasks_for:(fun _ -> None)
       (P.Session_close { id = fresh_id c; session = c.sid })
   with
  | Ok (P.Session_reply { event = P.Sess_closed; _ }) -> ()
  | Ok _ -> fail c "close: unexpected response"
  | Error m -> fail c "close: %s" m);
  Serve_proc.close c.conn

type setup = { server : Serve_proc.t; clients : client array }

(* Set-up opens the sessions and replays [warm_cycles] cycles of each
   session's stream untimed, so the server's code paths, its heap and the
   band bases are warm when timing starts. *)
let warm_cycles = 25

let warm c =
  for _ = 1 to warm_cycles do
    for _ = 1 to resolve_every do step c done;
    resolve c
  done;
  if c.failed > 0 then failwith "session-churn warm-up failed";
  {
    c with
    event_ms = Sample.create ();
    resolve_ms = Sample.create ();
    solve_ms = Sample.create ();
    events = 0;
    resolves = 0;
    weight = 0.0;
  }

let setup ~seed =
  let server = Serve_proc.start ~workers:sessions in
  let clients =
    Array.init sessions (fun i -> warm (open_session ~seed ~socket:server.Serve_proc.socket i))
  in
  { server; clients }

let run ?max_resolves (s : setup) ~seconds =
  let t0 = now () in
  let deadline = t0 +. seconds in
  let threads =
    Array.map (fun c -> Thread.create (drive ?max_resolves c ~deadline) ()) s.clients
  in
  Array.iter Thread.join threads;
  let elapsed = now () -. t0 in
  Array.iter close s.clients;
  elapsed
