(* One `sap_cli serve` child process on a Unix socket inside the checkout,
   plus the client-side plumbing every served workload shares. *)

module P = Sap_server.Protocol

let exe = Filename.concat "_build" (Filename.concat "default" "bin/sap_cli.exe")

(* Socket paths are relative to the checkout root (the working directory
   of both processes): an absolute path could exceed the 108-byte limit
   of a Unix socket address. *)
let run_dir = ".perfbench-run"

type t = { pid : int; socket : string }

let live : t list ref = ref []

let rec wait_exit pid ~until =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      if Obs.Clock.monotonic_seconds () > until then false
      else begin
        Unix.sleepf 0.01;
        wait_exit pid ~until
      end
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid ~until
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* SIGTERM drains the server; a server that has not exited after 20 s is
   killed.  Either way the child is reaped before this returns. *)
let stop t =
  live := List.filter (fun s -> s.pid <> t.pid) !live;
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  if not (wait_exit t.pid ~until:(Obs.Clock.monotonic_seconds () +. 20.0)) then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (wait_exit t.pid ~until:infinity)
  end;
  (try Sys.remove t.socket with Sys_error _ -> ());
  try Unix.rmdir run_dir with Unix.Unix_error _ -> ()

let () = at_exit (fun () -> List.iter stop !live)

let counter = ref 0

let connect_fd socket =
  match Sap_server.Client.connect_unix socket with
  | Ok fd -> fd
  | Error m -> failwith ("cannot connect: " ^ m)

(* Start a server with [workers] pool domains and return once its socket
   accepts connections. *)
let start ~workers =
  if not (Sys.file_exists exe) then failwith (exe ^ " is missing; run perfbench/run.sh");
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr counter;
  let socket =
    Filename.concat run_dir (Printf.sprintf "%d-%d.sock" (Unix.getpid ()) !counter)
  in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; socket; "--workers"; string_of_int workers; "-q" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let t = { pid; socket } in
  live := t :: !live;
  let until = Obs.Clock.monotonic_seconds () +. 60.0 in
  let rec ready () =
    match Sap_server.Client.connect_unix socket with
    | Ok fd -> Unix.close fd
    | Error _ ->
        if Obs.Clock.monotonic_seconds () > until then failwith "server did not come up";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "server exited during start-up");
        Unix.sleepf 0.002;
        ready ()
  in
  ready ();
  t

(* Peak resident set of a live process, from /proc (VmHWM, in kB). *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%s/status" pid in
  match open_in file with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.0)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---------- connections ---------- *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect socket =
  let fd = connect_fd socket in
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let read_frame c =
  P.read_frame ~read_line:(fun () ->
      try Some (input_line c.ic) with End_of_file | Sys_error _ -> None)

let send c frame =
  output_string c.oc frame;
  flush c.oc

(* Synchronous round trip. *)
let request c ~tasks_for req =
  send c (P.request_to_string req);
  match read_frame c with
  | None -> Error "connection closed"
  | Some lines -> P.response_of_lines ~tasks_for lines

(* ---------- the stats verb ---------- *)

let stats t =
  let c = connect t.socket in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  match request c ~tasks_for:(fun _ -> None) (P.Stats { id = 0 }) with
  | Ok (P.Stats_reply { stats; _ }) -> stats
  | Ok _ -> failwith "stats: unexpected response"
  | Error m -> failwith ("stats: " ^ m)

let rec field json = function
  | [] -> Some json
  | k :: rest -> (
      match json with
      | Obs.Json.Obj kvs -> Option.bind (List.assoc_opt k kvs) (fun v -> field v rest)
      | _ -> None)

let number json keys =
  match field json keys with
  | Some (Obs.Json.Int i) -> float_of_int i
  | Some (Obs.Json.Float f) -> f
  | _ -> 0.0

let counter stats name = number stats [ "metrics"; "counters"; name ]

let hist_count stats name = number stats [ "metrics"; "histograms"; name; "count" ]

let hist_max stats name = number stats [ "metrics"; "histograms"; name; "max" ]
