(** The client-connection layer shared by the dispatcher and the
    router: one state machine on a {!Reactor}, parameterised by a
    request handler.

    A front end ({!front}) owns the client listen socket, the reactor,
    the set of admitted connections, one read buffer, the self-pipe
    behind {!stop}, one housekeeping timer and, when configured, the
    metrics endpoint: a second listen socket answering each plain HTTP
    GET with the Prometheus document, one scrape per reactor connection
    (no thread per scrape). The front end's owner supplies a {!handler}
    that runs decoded requests; everything between the socket and that
    handler happens here.

    {2 Wire contract}

    - Admission is typed, never silent: a connection beyond
      [max_sessions], or (on the [select] backend) one whose fd number
      exceeds {!Reactor.Backend.select_fd_limit}, is answered with one
      whole [Overloaded] frame (request id 0) and closed.
    - A well-framed payload that does not decode (say, an unknown
      opcode) gets a typed [Error] (request id 0) and the connection
      keeps serving the requests after it.
    - A framing desync (a length prefix beyond
      {!Protocol.max_payload}) gets a typed [Error] (request id 0); the
      server then reads no further requests from that connection and
      closes it once the error has drained.
    - A consumer that lets its output buffer cross [write_high_water]
      gets one final typed [Overloaded] frame, its unanswered requests
      are dropped, and it is closed once the frame drains. A
      flow-controlled connection is exempt (its owner paces what it
      pushes).
    - A connection whose pending output makes no write progress for the
      stall limit is closed: 5 s for flow-controlled connections, the
      idle timeout when one is set, else 5 s.
    - With an idle timeout, a connection with no bytes received, no
      unanswered requests and no pending output for that long gets a
      typed [Goodbye] (request id 0) and is closed. Flow-controlled
      connections are exempt.
    - Every close first drains (boundedly) the unread inbound bytes, so
      the kernel does not answer the close with RST and destroy the
      final typed frame in flight to the peer. *)

type 'a t
(** One admitted client connection; ['a] is the handler's
    per-connection state. *)

type 'a front
(** A front end: listeners, reactor and the connection set. *)

type config = {
  label : string;  (** names the server in admission refusals *)
  host : string;
  port : int;  (** [0] binds an ephemeral port *)
  metrics_port : int option;  (** HTTP exposition listener, if any *)
  backend : Reactor.Backend.kind option;  (** [None] auto-selects *)
  max_sessions : int;
  write_high_water : int;  (** per-connection output bound in bytes *)
  idle_timeout : float;  (** seconds; [0.] disables idle reaping *)
}

type 'a handler = {
  accept : unit -> 'a;  (** state for a newly admitted connection *)
  request : 'a t -> int64 -> Protocol.request -> unit;
      (** a decoded request; answer now or later with {!push_response} *)
  busy : 'a t -> bool;
      (** the connection has requests not yet answered (exempts it from
          idle reaping) *)
  flow_controlled : 'a t -> bool;
      (** exempt from the slow-consumer verdict and idle reaping *)
  drop : 'a t -> unit;
      (** the connection was cut off by {!overload}: forget its
          unanswered requests *)
  closed : 'a t -> unit;
      (** the connection left the set and its fd is closed *)
  with_stats : (Server_stats.t -> unit) -> unit;
      (** run a stats update under whatever lock guards the stats *)
  metrics_doc : unit -> string;  (** the metrics endpoint's document *)
}

val bind : config -> 'a front
(** Bind and listen on the client (and metrics) ports and create the
    reactor; nothing is served until {!start}. Ignores [SIGPIPE] so a
    peer hanging up mid-write surfaces as [EPIPE].
    @raise Unix.Unix_error if an address is unavailable. *)

val start : 'a front -> 'a handler -> unit
(** Register the listeners, the stop pipe, the metrics endpoint and the
    housekeeping timer on the reactor. The owner then runs the loop:
    {!Reactor.run_once} followed by {!flush_dirty}, until {!stopping}
    and whatever drain it owes are done, then {!shutdown}. *)

val reactor : 'a front -> Reactor.t
val port : 'a front -> int
val metrics_port : 'a front -> int  (** [0] when disabled *)

val conns : 'a front -> 'a t list
(** Live connections, newest first. *)

val stop : 'a front -> unit
(** Request shutdown: one byte on the self-pipe, so it is safe from
    another thread or a signal handler. *)

val stopping : 'a front -> bool
(** A stop was received: listeners no longer accept. *)

val flush_dirty : 'a front -> unit
(** Write out every connection pushed to since the last call and close
    those due to close. Call once per loop turn. *)

val shutdown : 'a front -> unit
(** Flush (best effort) and close every connection, then the metrics
    endpoint, the listeners and the stop pipe. *)

val release_listener : 'a front -> unit
(** Close this process's copy of the client listen socket only (for a
    forked parent that must not keep the port accept-able). *)

val write_all : Unix.file_descr -> bytes -> bool
(** Write a whole small frame, retrying short writes; [false] when the
    socket refuses part of it (would block, reset, closed). *)

val state : 'a t -> 'a
val closing : 'a t -> bool
(** Cut off or saying goodbye: no further requests are read. *)

val dead : 'a t -> bool
(** Closed and out of the set. *)

val has_room : 'a t -> bool
(** Pending output is below [write_high_water]: what a flow-controlled
    connection's owner checks before pushing more. *)

val push_frame : 'a t -> bytes -> unit
(** Queue an encoded response frame under the slow-consumer rule. No-op
    once the connection is dead or cut off. *)

val push_response : 'a t -> int64 -> Protocol.response -> unit

val overload : 'a t -> string -> unit
(** Cut the connection off: count an overload, drop its unanswered
    requests ([handler.drop]), queue a final typed [Overloaded] frame
    with this reason and close once it drains. *)
