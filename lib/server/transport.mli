(** Byte-stream transports for the solve service.

    One connection = one framed request/response stream ({!Protocol}).
    The connection loop reads frames and admits them via {!Server.submit}
    — which blocks on the pool's bounded queue when the server is
    saturated, so backpressure reaches the client through the kernel
    socket buffer — and hands each pending response to the connection's
    {!Pump}, a writer domain that forces them in FIFO admission order and
    writes each one the moment it is ready (ids let pipelined clients
    re-associate them anyway).  A frame whose header does not parse is
    answered with an [error] response under id [-1]; the stream stays
    usable.

    End of input drains every admitted request in order before closing;
    a [shutdown] frame additionally drains the server itself (finish
    in-flight, refuse new) and acknowledges {e after} the drain, so a
    client that waits for the ack observes a fully quiesced server. *)

val serve_frames :
  in_channel ->
  out_channel ->
  ((Protocol.request, string) result -> unit -> string) ->
  unit
(** The one frame loop, shared by {!serve_channels} and the router's
    front ({!Router.serve}).  Reads frames until end of input; each
    parsed frame ([Error] for one whose header does not parse) goes to
    the handler, which admits the request and returns a thunk that
    blocks until the full response text is ready.  Thunks are forced
    and written (one write, one flush each) on the connection's
    {!Pump}, in admission order.  The loop stops reading after a
    [shutdown] frame and returns once every pushed response is out; a
    peer that disappears mid-read or mid-write ends it without
    raising. *)

val serve_channels : Server.t -> in_channel -> out_channel -> unit
(** Serve one connection (or a stdio session) to completion.  Returns on
    end of input, after a [shutdown] frame, or when the peer disappears
    mid-write; never raises for transport-level failures. *)

(** {2 Stop handles}

    A [stopper] is a self-pipe-backed stop request: an atomic flag plus a
    wakeup pipe that the accept loop selects on alongside its listening
    socket.  [request_stop] therefore takes effect {e immediately} — the
    loop is not polling on a timeout — and an idle server parks in
    [select] making no syscalls at all.  [request_stop] is safe from an
    OCaml signal handler (handlers run as ordinary code at safe points)
    and from any domain. *)

type stopper

val stopper : unit -> stopper
(** A fresh stop handle.  Feed it to {e one} [serve_unix*] call;
    stoppers are single-use (the flag never resets). *)

val request_stop : stopper -> unit
(** Set the flag and wake the accept loop.  Idempotent. *)

val stop_requested : stopper -> bool

val close_stopper : stopper -> unit
(** Release the pipe fds.  Only call after the serving call using this
    stopper has returned.  [serve_unix*] closes stoppers it created
    itself (when [?stop] was omitted). *)

val serve_unix_sessions :
  ?on_bound:(string -> unit) ->
  ?stop:stopper ->
  ?draining:(unit -> bool) ->
  (in_channel -> out_channel -> unit) ->
  socket_path:string ->
  unit
(** Generic accept loop: bind a Unix-domain socket (replacing any stale
    socket file), call [on_bound] with the bound path, then serve each
    accepted connection with [session] in its own domain until
    [request_stop stop] is called or [draining ()] turns true.  Stopping
    is graceful: accepting ceases, every live connection's receive side
    is shut down so its reader unblocks, and each session runs to
    completion (draining the responses it owes) before the call returns
    and removes the socket file.  SIGPIPE is ignored for the process (a
    dead peer must surface as [EPIPE], not a kill).  Connection fds are
    owned by the accept loop and closed only after the session's domain
    is joined. *)

val serve_unix :
  ?on_bound:(string -> unit) ->
  ?stop:stopper ->
  Server.t ->
  socket_path:string ->
  unit
(** [serve_unix_sessions] specialised to {!serve_channels} on a
    {!Server.t}: accepts until a [shutdown] frame arrives (the server
    starts draining) or [request_stop] is called (e.g. from a SIGINT
    handler). *)
