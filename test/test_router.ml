(* Consistent-hash router: ring properties, end-to-end fan-out over
   in-process shards, drain under load, the completion-flush
   regression (a quiet connection must still receive its tail), session
   pinning, round-solve affinity and the router's error accounting. *)

module Proto = Sap_server.Protocol
module Server = Sap_server.Server
module Transport = Sap_server.Transport
module Client = Sap_server.Client
module Router = Sap_server.Router
module Fingerprint = Sap_server.Fingerprint

let case name f = Alcotest.test_case name `Quick f
let default_params = Proto.default_solve_params

let solve_key path tasks =
  Fingerprint.solve_key ~problem:"sap"
    ~algorithm:default_params.Proto.algorithm ~seed:default_params.Proto.seed
    path tasks

let keys n = List.init n (fun i -> Printf.sprintf "key-%d" (i * 7919))

(* ---------- ring ---------- *)

let ring_stable_ownership () =
  let members = [ "a"; "b"; "c"; "d" ] in
  let r1 = Router.Ring.create members and r2 = Router.Ring.create members in
  Alcotest.(check (list string)) "members sorted" members (Router.Ring.members r1);
  List.iter
    (fun k ->
      Alcotest.(check (option string))
        ("owner stable for " ^ k)
        (Router.Ring.owner r1 k) (Router.Ring.owner r2 k))
    (keys 200);
  Alcotest.(check (option string))
    "empty ring owns nothing" None
    (Router.Ring.owner (Router.Ring.create []) "x")

let ring_add_steals_only_for_new () =
  let base = Router.Ring.create [ "a"; "b"; "c" ] in
  let grown = Router.Ring.add base "d" in
  let moved =
    List.filter
      (fun k -> Router.Ring.owner base k <> Router.Ring.owner grown k)
      (keys 400)
  in
  List.iter
    (fun k ->
      Alcotest.(check (option string))
        "moved key goes to the new member" (Some "d")
        (Router.Ring.owner grown k))
    moved;
  (* Expectation is 1/4 of the keyspace; allow generous slack. *)
  Alcotest.(check bool)
    "re-homed fraction bounded" true
    (List.length moved < 400 / 2)

let ring_remove_moves_only_from_removed () =
  let base = Router.Ring.create [ "a"; "b"; "c"; "d" ] in
  let shrunk = Router.Ring.remove base "b" in
  List.iter
    (fun k ->
      let before = Router.Ring.owner base k in
      let after = Router.Ring.owner shrunk k in
      if before <> Some "b" then
        Alcotest.(check (option string)) ("unmoved: " ^ k) before after
      else
        Alcotest.(check bool)
          ("re-homed off b: " ^ k)
          true
          (after <> Some "b" && after <> None))
    (keys 400)

let ring_rehoming_fraction_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"ring add re-homes ~1/n of keys" ~count:30
       QCheck.(pair (int_range 2 8) (int_range 0 1000))
       (fun (n, salt) ->
         let members = List.init n (Printf.sprintf "m%d") in
         let base = Router.Ring.create members in
         let grown = Router.Ring.add base "extra" in
         let ks =
           List.init 300 (fun i -> Printf.sprintf "s%d-%d" salt (i * 31))
         in
         let moved =
           List.filter
             (fun k -> Router.Ring.owner base k <> Router.Ring.owner grown k)
             ks
         in
         (* All moved keys belong to the new member, and the moved share
            stays within 3x the ideal 1/(n+1). *)
         List.for_all
           (fun k -> Router.Ring.owner grown k = Some "extra")
           moved
         && List.length moved * (n + 1) <= 3 * 300))

(* ---------- in-process fleet ---------- *)

type fleet = {
  fl_dir : string;
  fl_router : Router.t;
  fl_front : string;
  fl_stops : Transport.stopper list;
  fl_doms : unit Domain.t list;
  fl_servers : Server.t list;
}

let start_shard ~dir ~name =
  let socket_path = Filename.concat dir (name ^ ".sock") in
  let srv =
    Server.create
      ~config:{ Server.default_config with Server.workers = Some 2 } ()
  in
  let stop = Transport.stopper () in
  let bound = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        Transport.serve_unix
          ~on_bound:(fun _ -> Atomic.set bound true)
          ~stop srv ~socket_path)
  in
  let rec wait n =
    if not (Atomic.get bound) then
      if n = 0 then Alcotest.fail (name ^ " never bound")
      else (Unix.sleepf 0.01; wait (n - 1))
  in
  wait 500;
  (socket_path, srv, stop, dom)

let start_fleet ?(shards = 3) () =
  let dir = Filename.temp_file "sap_router" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let started =
    List.init shards (fun i ->
        let name = Printf.sprintf "shard-%d" i in
        (name, start_shard ~dir ~name))
  in
  let endpoints =
    List.map
      (fun (name, (sock, _, _, _)) ->
        { Router.ep_name = name; ep_socket = sock; ep_spawn = None })
      started
  in
  let router =
    match Router.create endpoints with
    | Ok r -> r
    | Error m -> Alcotest.failf "router create: %s" m
  in
  let front = Filename.concat dir "front.sock" in
  let front_stop = Transport.stopper () in
  let front_bound = Atomic.make false in
  let front_dom =
    Domain.spawn (fun () ->
        Router.serve
          ~on_bound:(fun _ -> Atomic.set front_bound true)
          ~stop:front_stop router ~socket_path:front)
  in
  let rec wait n =
    if not (Atomic.get front_bound) then
      if n = 0 then Alcotest.fail "front never bound"
      else (Unix.sleepf 0.01; wait (n - 1))
  in
  wait 500;
  {
    fl_dir = dir;
    fl_router = router;
    fl_front = front;
    fl_stops = front_stop :: List.map (fun (_, (_, _, s, _)) -> s) started;
    fl_doms = front_dom :: List.map (fun (_, (_, _, _, d)) -> d) started;
    fl_servers = List.map (fun (_, (_, srv, _, _)) -> srv) started;
  }

let stop_fleet fl =
  Router.shutdown fl.fl_router;
  List.iter Transport.request_stop fl.fl_stops;
  List.iter Domain.join fl.fl_doms;
  List.iter Transport.close_stopper fl.fl_stops;
  List.iter Server.drain fl.fl_servers;
  (try
     Sys.readdir fl.fl_dir
     |> Array.iter (fun f -> Sys.remove (Filename.concat fl.fl_dir f))
   with Sys_error _ -> ());
  try Sys.rmdir fl.fl_dir with Sys_error _ -> ()

let with_fleet ?shards f =
  let fl = start_fleet ?shards () in
  Fun.protect ~finally:(fun () -> stop_fleet fl) @@ fun () -> f fl

let batch_through_front fl instances =
  match Client.connect_unix fl.fl_front with
  | Error m -> Alcotest.failf "connect front: %s" m
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          Client.run_batch ~ic ~oc ~params:default_params instances)

let assert_all_solved instances (result : Client.batch_result) =
  Alcotest.(check (list string)) "no transport errors" []
    result.Client.transport_errors;
  Array.iteri
    (fun i resp ->
      let path, _ = List.nth instances i in
      match resp with
      | Some (Proto.Solved { solution; _ }) ->
          Helpers.assert_feasible_sap path solution
      | _ -> Alcotest.failf "instance %d: no solved response" i)
    result.Client.responses

let router_end_to_end () =
  with_fleet @@ fun fl ->
  let instances = List.init 12 (fun i -> Helpers.tiny_instance (500 + (13 * i))) in
  (* Every instance solved and feasible through the front socket. *)
  assert_all_solved instances (batch_through_front fl instances);
  (* Keys spread across members, and owner_for is ring-consistent. *)
  let owners =
    List.map
      (fun (path, tasks) ->
        match Router.owner_for fl.fl_router ~key:(solve_key path tasks) with
        | Some o -> o
        | None -> Alcotest.fail "no owner")
      instances
  in
  Alcotest.(check bool)
    "at least two shards own keys" true
    (List.length (List.sort_uniq String.compare owners) >= 2);
  (* Affinity: a repeat of the same batch hits each owner's LRU cache.
     The hit counter is process-global, which is exactly the sum over
     the in-process shards. *)
  Obs.Metrics.enable ();
  let hits () = Obs.Metrics.counter_value (Obs.Metrics.counter "server.cache.hits") in
  let before = hits () in
  assert_all_solved instances (batch_through_front fl instances);
  let after = hits () in
  Alcotest.(check bool)
    (Printf.sprintf "repeat batch is cached (%d -> %d)" before after)
    true
    (after - before >= List.length instances)

(* The pump regression: a client that pipelines one request and then
   goes quiet (no half-close, no further frames) must still receive the
   response as soon as it completes.  Before the per-connection pump,
   the reply sat in the session's FIFO until new inbound traffic. *)
let router_flushes_without_inbound () =
  with_fleet ~shards:2 @@ fun fl ->
  match Client.connect_unix fl.fl_front with
  | Error m -> Alcotest.failf "connect front: %s" m
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let oc = Unix.out_channel_of_descr fd in
          let path, tasks = Helpers.tiny_instance 4242 in
          output_string oc
            (Proto.request_to_string
               (Proto.Solve { id = 7; params = default_params; path; tasks }));
          flush oc;
          (* No half-close: wait on the bare socket for the reply. *)
          (match Unix.select [ fd ] [] [] 10.0 with
          | [], _, _ -> Alcotest.fail "no response within 10s (stranded tail)"
          | _ -> ());
          let ic = Unix.in_channel_of_descr fd in
          let read_line () =
            try Some (input_line ic) with End_of_file -> None
          in
          match Proto.read_frame ~read_line with
          | None -> Alcotest.fail "eof instead of response"
          | Some lines -> (
              let tasks_for id = if id = 7 then Some tasks else None in
              match Proto.response_of_lines ~tasks_for lines with
              | Ok (Proto.Solved { id; solution; _ }) ->
                  Alcotest.(check int) "id echoed" 7 id;
                  Helpers.assert_feasible_sap path solution
              | Ok _ -> Alcotest.fail "expected solved"
              | Error m -> Alcotest.failf "bad response: %s" m))

let drain_under_load_loses_nothing () =
  with_fleet @@ fun fl ->
  let instances = List.init 16 (fun i -> Helpers.tiny_instance (900 + (7 * i))) in
  (* Concurrent batches while a shard drains: every request answered. *)
  let worker =
    Domain.spawn (fun () ->
        List.init 3 (fun _ -> batch_through_front fl instances))
  in
  Unix.sleepf 0.02;
  (match Router.drain_shard fl.fl_router "shard-1" with
  | Ok () -> ()
  | Error m -> Alcotest.failf "drain: %s" m);
  let results = Domain.join worker in
  List.iter (assert_all_solved instances) results;
  (* The drained shard is out of the ring: no key re-homes onto it. *)
  List.iter
    (fun k ->
      match Router.owner_for fl.fl_router ~key:k with
      | Some "shard-1" -> Alcotest.fail "drained shard still owns keys"
      | _ -> ())
    (keys 100);
  (* And a fresh batch still fully succeeds on the survivors. *)
  assert_all_solved instances (batch_through_front fl instances)

(* ---------- sessions, round-solve and error accounting ---------- *)

(* One synchronous front connection.  A 10 s receive timeout turns a
   hung verb into a test failure instead of a stuck suite. *)
let with_front fl f =
  match Client.connect_unix fl.fl_front with
  | Error m -> Alcotest.failf "connect front: %s" m
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          f (fun ?(tasks = []) req ->
              match Client.request ~ic ~oc ~tasks_for:(fun _ -> Some tasks) req with
              | Ok resp -> resp
              | Error m -> Alcotest.failf "front request: %s" m))

let field k = function
  | Obs.Json.Obj fields -> (
      match List.assoc_opt k fields with
      | Some v -> v
      | None -> Alcotest.failf "stats field %s missing" k)
  | _ -> Alcotest.failf "stats field %s: not an object" k

let int_field k j =
  match field k j with
  | Obs.Json.Int n -> n
  | _ -> Alcotest.failf "stats field %s: not an int" k

let shard_stats fl name =
  match field "shards" (Router.stats_json fl.fl_router) with
  | Obs.Json.List shards -> (
      match
        List.find_opt (fun sh -> field "name" sh = Obs.Json.String name) shards
      with
      | Some sh -> sh
      | None -> Alcotest.failf "no shard %s in stats" name)
  | _ -> Alcotest.fail "stats shards: not a list"

let router_sessions fl = int_field "sessions" (Router.stats_json fl.fl_router)

let expect_unknown_session what = function
  | Proto.Failed { code = Proto.Unknown_session; _ } -> ()
  | _ -> Alcotest.failf "%s: expected unknown-session" what

let open_session (send : ?tasks:Core.Task.t list -> Proto.request -> Proto.response)
    path tasks =
  match send ~tasks (Proto.Session_open { id = 1; seed = 3; path; tasks }) with
  | Proto.Session_reply { session; event = Proto.Sess_opened; solution; _ } ->
      Helpers.assert_feasible_sap path solution;
      session
  | _ -> Alcotest.fail "session-open did not answer opened"

let extra_task = Core.Task.make ~id:5000 ~first_edge:0 ~last_edge:0 ~demand:1 ~weight:3.0

let router_session_round_trip () =
  with_fleet @@ fun fl ->
  with_front fl @@ fun send ->
  let path, tasks = Helpers.tiny_instance 77 in
  let sid = open_session send path tasks in
  Alcotest.(check int) "router pins the session" 1 (router_sessions fl);
  (match send (Proto.Session_add { id = 2; session = sid; task = extra_task }) with
  | Proto.Session_reply { event = Proto.Sess_ack; session; _ } ->
      Alcotest.(check int) "ack names the session" sid session
  | _ -> Alcotest.fail "add-task not acked");
  let tasks = extra_task :: tasks in
  (match send ~tasks (Proto.Session_resolve { id = 3; session = sid; cold = false }) with
  | Proto.Session_reply { event = Proto.Sess_resolved; solution; _ } ->
      Helpers.assert_feasible_sap path solution
  | _ -> Alcotest.fail "resolve did not answer resolved");
  (match send (Proto.Session_close { id = 4; session = sid }) with
  | Proto.Session_reply { event = Proto.Sess_closed; _ } -> ()
  | _ -> Alcotest.fail "session-close not acked");
  expect_unknown_session "resolve after close"
    (send (Proto.Session_resolve { id = 5; session = sid; cold = false }));
  Alcotest.(check int) "pin dropped on close" 0 (router_sessions fl)

(* Sessions are not re-homed: once the owner is drained its pins go, and
   every follow-up answers unknown-session at once. *)
let router_session_owner_drained () =
  with_fleet @@ fun fl ->
  with_front fl @@ fun send ->
  let path, tasks = Helpers.tiny_instance 91 in
  let sid = open_session send path tasks in
  let owner =
    let key =
      Fingerprint.solve_key ~problem:"sap" ~algorithm:"session-open" ~seed:3
        path tasks
    in
    match Router.owner_for fl.fl_router ~key with
    | Some o -> o
    | None -> Alcotest.fail "no owner for the session key"
  in
  (match Router.drain_shard fl.fl_router owner with
  | Ok () -> ()
  | Error m -> Alcotest.failf "drain %s: %s" owner m);
  expect_unknown_session "add-task"
    (send (Proto.Session_add { id = 2; session = sid; task = extra_task }));
  expect_unknown_session "resolve"
    (send (Proto.Session_resolve { id = 3; session = sid; cold = false }));
  expect_unknown_session "session-close"
    (send (Proto.Session_close { id = 4; session = sid }));
  Alcotest.(check int) "no pins left" 0 (router_sessions fl)

let router_round_solve_affinity () =
  with_fleet @@ fun fl ->
  with_front fl @@ fun send ->
  let path, tasks = Helpers.tiny_instance 123 in
  let req = Proto.Round_solve { id = 1; algorithm = "bands"; cache = true; path; tasks } in
  let owner =
    let key = Fingerprint.solve_key ~problem:"round" ~algorithm:"bands" ~seed:0 path tasks in
    match Router.owner_for fl.fl_router ~key with
    | Some o -> o
    | None -> Alcotest.fail "no owner for the round key"
  in
  let hits () = int_field "hits" (field "cache" (field "server_stats" (shard_stats fl owner))) in
  let cached () =
    match send ~tasks req with
    | Proto.Round_solved { summary; rounds; _ } ->
        List.iter (Helpers.assert_feasible_sap path) rounds;
        summary.Proto.r_cached
    | _ -> Alcotest.fail "round-solve did not answer round-solved"
  in
  Alcotest.(check bool) "first round-solve is fresh" false (cached ());
  let before = hits () in
  Alcotest.(check bool) "resend is cached" true (cached ());
  Alcotest.(check int) "the hit lands on the owning shard" (before + 1) (hits ())

(* Top-level [errors] counts error responses the router makes itself;
   a shard's error is relayed and counted on that shard only. *)
let router_errors_counted_once () =
  with_fleet ~shards:1 @@ fun fl ->
  with_front fl @@ fun send ->
  let top () = int_field "errors" (Router.stats_json fl.fl_router) in
  let shard () = int_field "errors" (shard_stats fl "shard-0") in
  let path, tasks = Helpers.tiny_instance 5 in
  let params = { default_params with Proto.algorithm = "no-such-algorithm" } in
  (match send (Proto.Solve { id = 1; params; path; tasks }) with
  | Proto.Failed { code = Proto.Unknown_algorithm; _ } -> ()
  | _ -> Alcotest.fail "expected unknown-algorithm from the shard");
  Alcotest.(check (pair int int)) "relayed shard error: (top, shard)" (0, 1) (top (), shard ());
  expect_unknown_session "resolve on an unknown session"
    (send (Proto.Session_resolve { id = 2; session = 12345; cold = false }));
  Alcotest.(check (pair int int)) "router-made error: (top, shard)" (1, 1) (top (), shard ());
  (* A frame whose header does not parse is answered by the router too. *)
  (match Client.connect_unix fl.fl_front with
  | Error m -> Alcotest.failf "connect front: %s" m
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let oc = Unix.out_channel_of_descr fd in
          output_string oc "sap-request v1 9 no-such-verb\nend\n";
          flush oc;
          let ic = Unix.in_channel_of_descr fd in
          let read_line () = try Some (input_line ic) with End_of_file -> None in
          match Option.map (Proto.response_of_lines ~tasks_for:(fun _ -> None))
                  (Proto.read_frame ~read_line) with
          | Some (Ok (Proto.Failed { id = -1; code = Proto.Bad_request; _ })) -> ()
          | _ -> Alcotest.fail "expected bad-request under id -1"));
  Alcotest.(check (pair int int)) "bad frame: (top, shard)" (2, 1) (top (), shard ())

(* ---------- loadgen sweep knee ---------- *)

let knee_detection () =
  let knee pts = Lab.Loadgen.knee ~threshold:0.9 pts in
  Alcotest.(check (option (float 1e-9)))
    "knee at last keeping-up point" (Some 20.)
    (knee [ (10., 10.); (20., 19.5); (30., 21.) ]);
  Alcotest.(check (option (float 1e-9)))
    "all keep up: knee at the top" (Some 30.)
    (knee [ (10., 10.); (20., 20.); (30., 29.) ]);
  Alcotest.(check (option (float 1e-9)))
    "never keeps up: no knee" None
    (knee [ (10., 5.); (20., 4.) ])

let () =
  Alcotest.run "router"
    [
      ( "ring",
        [
          case "stable ownership" ring_stable_ownership;
          case "add steals only for the new member" ring_add_steals_only_for_new;
          case "remove moves only the removed member's keys"
            ring_remove_moves_only_from_removed;
          ring_rehoming_fraction_qcheck;
        ] );
      ( "routing",
        [
          case "end-to-end fan-out + cache affinity" router_end_to_end;
          case "response flushes without inbound traffic"
            router_flushes_without_inbound;
          case "drain under load loses nothing" drain_under_load_loses_nothing;
          case "session round-trip through the front" router_session_round_trip;
          case "drained session owner answers unknown-session"
            router_session_owner_drained;
          case "round-solve affinity + cache hit" router_round_solve_affinity;
          case "errors counted once" router_errors_counted_once;
        ] );
      ("sweep", [ case "knee detection" knee_detection ]);
    ]
