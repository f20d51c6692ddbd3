type config = {
  label : string;
  host : string;
  port : int;
  metrics_port : int option;
  backend : Reactor.Backend.kind option;
  max_sessions : int;
  write_high_water : int;
  idle_timeout : float;
}

(* A metrics scrape: one-shot HTTP/1.0 on a plain reactor connection. *)
type scrape = {
  sfd : Unix.file_descr;
  swr : Reactor.Writer.t;
  mutable responded : bool;
  mutable sdead : bool;
  mutable stimer : Reactor.timer option;
}

type 'a t = {
  fd : Unix.file_descr;
  front : 'a front;
  state : 'a;
  framer : Protocol.Framer.t;
  wr : Reactor.Writer.t;
  mutable closing : bool;  (* close once the output buffer drains *)
  mutable overflow : bool;  (* cut off: the Overloaded frame was the last *)
  mutable dead : bool;  (* fd closed and out of the set *)
  mutable marked : bool;  (* on [front.dirty] *)
  mutable last_active : float;  (* last byte received; idle reaping *)
}

and 'a front = {
  cfg : config;
  reactor : Reactor.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  metrics_fd : Unix.file_descr option;
  metrics_bound_port : int;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  scratch : Bytes.t;  (* the one read buffer: the loop is single-threaded *)
  mutable handler : 'a handler option;  (* set by [start] *)
  mutable conns : 'a t list;  (* newest first *)
  mutable nconns : int;  (* length of [conns]; admission is O(1) *)
  mutable dirty : 'a t list;  (* pushed to since the last flush_dirty *)
  mutable stopping : bool;
  mutable shut : bool;
  mutable scrapes : scrape list;
}

and 'a handler = {
  accept : unit -> 'a;
  request : 'a t -> int64 -> Protocol.request -> unit;
  busy : 'a t -> bool;
  flow_controlled : 'a t -> bool;
  drop : 'a t -> unit;
  closed : 'a t -> unit;
  with_stats : (Server_stats.t -> unit) -> unit;
  metrics_doc : unit -> string;
}

(* A flow-controlled connection (a replication subscriber) that stops
   draining holds its owner's pacing down and would pin its bounded
   write buffer full forever; past this stall it is cut loose. *)
let flow_stall_timeout = 5.0

(* A connection whose socket accepts nothing for this long while output
   is pending is gone in all but name. With idle reaping on, the idle
   timeout governs instead. *)
let default_stall_grace = 5.0

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let listen_on host port backlog =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd backlog;
  let bound =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  (fd, bound)

let bind cfg =
  (* A peer hanging up mid-write must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd, bound_port = listen_on cfg.host cfg.port 128 in
  let metrics_fd, metrics_bound_port =
    match cfg.metrics_port with
    | None -> (None, 0)
    | Some p ->
        let fd, bp = listen_on cfg.host p 16 in
        (Some fd, bp)
  in
  let stop_r, stop_w = Unix.pipe () in
  {
    cfg;
    reactor = Reactor.create ?backend:cfg.backend ();
    listen_fd;
    bound_port;
    metrics_fd;
    metrics_bound_port;
    stop_r;
    stop_w;
    scratch = Bytes.create 65536;
    handler = None;
    conns = [];
    nconns = 0;
    dirty = [];
    stopping = false;
    shut = false;
    scrapes = [];
  }

let reactor f = f.reactor
let port f = f.bound_port
let metrics_port f = f.metrics_bound_port
let conns f = f.conns
let stopping f = f.stopping
let state c = c.state
let closing c = c.closing
let dead c = c.dead
let handler f = Option.get f.handler

let has_room c =
  Reactor.Writer.pending_bytes c.wr < Reactor.Writer.high_water c.wr

let stop f =
  (* Writing is async-signal-safe, so Ctrl-C handlers may call this. *)
  try ignore (Unix.write f.stop_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

let release_listener f = close_quietly f.listen_fd

(* ---------------- output ---------------- *)

let mark c =
  if not c.marked then begin
    c.marked <- true;
    c.front.dirty <- c :: c.front.dirty
  end

let close_after_flush c =
  c.closing <- true;
  mark c

let overload c reason =
  if not (c.dead || c.overflow) then begin
    let h = handler c.front in
    c.overflow <- true;
    h.with_stats Server_stats.overloaded;
    h.drop c;
    ignore
      (Reactor.Writer.push c.wr
         (Protocol.encode_response ~id:0L (Protocol.Overloaded reason)));
    close_after_flush c
  end

(* A connection whose buffer bursts the high-water mark is a consumer
   slower than the server for longer than the bound can absorb: it is
   cut off with one typed frame, allowed past the mark so the close is
   explicable on the wire. *)
let push_frame c frame =
  if not (c.dead || c.overflow) then begin
    mark c;
    if
      (not (Reactor.Writer.push c.wr frame))
      && not ((handler c.front).flow_controlled c)
    then
      overload c
        (Printf.sprintf "slow consumer: write buffer over %d bytes, closing"
           (Reactor.Writer.high_water c.wr))
  end

let push_response c id resp = push_frame c (Protocol.encode_response ~id resp)

(* ---------------- closing ---------------- *)

let close c =
  if not c.dead then begin
    let f = c.front in
    let h = handler f in
    c.dead <- true;
    f.conns <- List.filter (fun x -> x != c) f.conns;
    f.nconns <- f.nconns - 1;
    Reactor.deregister f.reactor c.fd;
    (* Drain unread inbound bytes before closing: close(2) with data
       still in the receive queue makes the kernel answer with RST,
       which destroys the typed goodbye frame in flight to the peer.
       Bounded — a peer still spraying bytes gets the reset it earned. *)
    let rec drain n =
      if n > 0 then
        match Unix.read c.fd f.scratch 0 (Bytes.length f.scratch) with
        | 0 -> ()
        | _ -> drain (n - 1)
        | exception Unix.Unix_error _ -> ()
    in
    drain 16;
    close_quietly c.fd;
    h.with_stats Server_stats.session_closed;
    h.closed c
  end

(* Write what the socket accepts and keep poll interest equal to "has
   pending bytes" — write interest on an idle socket would spin the
   loop. A connection is closed once it is closing and drained, or when
   the peer is gone. *)
let flush c =
  if not c.dead then
    match Reactor.Writer.flush c.wr ~now:(Unix.gettimeofday ()) with
    | Reactor.Writer.Peer_gone -> close c
    | Reactor.Writer.Drained when c.closing -> close c
    | Reactor.Writer.Drained | Reactor.Writer.Pending ->
        Reactor.set_write_interest c.front.reactor c.fd
          (Reactor.Writer.has_pending c.wr)

let flush_dirty f =
  (* Closing may push to other connections (an owner releasing frames
     held for the dead one); loop until nothing is left unflushed. *)
  while f.dirty <> [] do
    let due = List.rev f.dirty in
    f.dirty <- [];
    List.iter
      (fun c ->
        c.marked <- false;
        flush c)
      due
  done

(* ---------------- input ---------------- *)

let rec decode c =
  if not (c.dead || c.closing) then
    match Protocol.Framer.next c.framer with
    | Ok None -> ()
    | Ok (Some payload) ->
        (match Protocol.decode_request payload with
        | Ok (id, req) -> (handler c.front).request c id req
        | Result.Error err ->
            push_response c 0L (Protocol.Error (Protocol.error_to_string err)));
        decode c
    | Result.Error err ->
        (* Length prefix beyond max_payload: the byte stream is beyond
           recovery. Answer, then close after the answer drains. *)
        push_response c 0L (Protocol.Error (Protocol.error_to_string err));
        close_after_flush c

let on_readable c =
  let scratch = c.front.scratch in
  match Unix.read c.fd scratch 0 (Bytes.length scratch) with
  | 0 -> close c
  | _ when c.closing ->
      (* A cut-off consumer gets no further service; discarding (rather
         than ignoring) its bytes keeps the receive queue empty so the
         eventual close delivers the final typed frame instead of an
         RST. *)
      ()
  | n ->
      c.last_active <- Unix.gettimeofday ();
      Protocol.Framer.feed c.framer scratch n;
      decode c
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> close c

(* ---------------- admission ---------------- *)

let refusal f fd =
  if f.nconns >= f.cfg.max_sessions then
    Some
      (Printf.sprintf "%s at session limit (%d)" f.cfg.label
         f.cfg.max_sessions)
  else if
    Reactor.backend f.reactor = Reactor.Backend.Select
    && Reactor.Backend.fd_int fd > Reactor.Backend.select_fd_limit
  then
    (* The select fallback cannot wait on fds this high; a typed refusal
       beats a crashed loop. The poll backend has no such ceiling. *)
    Some
      (Printf.sprintf "select backend cannot serve fd %d (limit %d)"
         (Reactor.Backend.fd_int fd) Reactor.Backend.select_fd_limit)
  else None

let write_all fd frame =
  let len = Bytes.length frame in
  let rec from off =
    off >= len
    ||
    match Unix.write fd frame off (len - off) with
    | 0 -> false
    | n -> from (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> from off
    | exception Unix.Unix_error _ -> false
  in
  from 0

let reject f fd reason =
  (* One typed Overloaded frame, then the door. The socket is fresh
     (blocking) and the frame small, but a single write is still allowed
     to be short — e.g. a tiny send buffer on a slow client — and a
     truncated frame would be undecodable, so loop until the whole frame
     is out. *)
  (handler f).with_stats Server_stats.overloaded;
  ignore
    (write_all fd
       (Protocol.encode_response ~id:0L (Protocol.Overloaded reason)));
  close_quietly fd

let admit f fd =
  let h = handler f in
  Unix.set_nonblock fd;
  let now = Unix.gettimeofday () in
  let c =
    {
      fd;
      front = f;
      state = h.accept ();
      framer = Protocol.Framer.create ();
      wr = Reactor.Writer.create ~high_water:f.cfg.write_high_water ~now fd;
      closing = false;
      overflow = false;
      dead = false;
      marked = false;
      last_active = now;
    }
  in
  f.conns <- c :: f.conns;
  f.nconns <- f.nconns + 1;
  Reactor.register f.reactor fd
    ~readable:(fun () -> on_readable c)
    ~writable:(fun () -> flush c)
    ();
  Reactor.set_write_interest f.reactor fd false;
  h.with_stats Server_stats.session_opened

(* Drain the whole accept backlog: with thousands of clients dialling at
   once, one accept per readiness wakeup would leave most of the burst
   waiting a full loop turn each. *)
let rec accept_all f lfd admit =
  match Unix.accept lfd with
  | exception Unix.Unix_error _ -> ()
  | fd, _peer ->
      if f.stopping then close_quietly fd else admit fd;
      accept_all f lfd admit

let admit_client f fd =
  match refusal f fd with
  | Some reason -> reject f fd reason
  | None -> admit f fd

(* ---------------- metrics endpoint ---------------- *)

(* Every scrape is a plain reactor connection: accept, wait for the
   first request bytes (or [silent_after] of silence), write the
   document, close once drained — or abandon an unread response after
   [drain_grace]. A scraper that connects and says nothing costs one
   idle fd, never a thread and never a blocked loop. *)
let silent_after = 1.0
let drain_grace = 5.0

let close_scrape f s =
  if not s.sdead then begin
    s.sdead <- true;
    Option.iter (Reactor.cancel f.reactor) s.stimer;
    Reactor.deregister f.reactor s.sfd;
    close_quietly s.sfd;
    f.scrapes <- List.filter (fun x -> x != s) f.scrapes
  end

let flush_scrape f s =
  match Reactor.Writer.flush s.swr ~now:(Unix.gettimeofday ()) with
  | Reactor.Writer.Peer_gone -> close_scrape f s
  | Reactor.Writer.Drained when s.responded -> close_scrape f s
  | Reactor.Writer.Drained | Reactor.Writer.Pending ->
      Reactor.set_write_interest f.reactor s.sfd
        (Reactor.Writer.has_pending s.swr)

let respond f s =
  if not (s.responded || s.sdead) then begin
    s.responded <- true;
    Option.iter (Reactor.cancel f.reactor) s.stimer;
    let body = (handler f).metrics_doc () in
    let resp =
      Printf.sprintf
        "HTTP/1.0 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4\r\n\
         Content-Length: %d\r\n\
         Connection: close\r\n\
         \r\n\
         %s"
        (String.length body) body
    in
    ignore (Reactor.Writer.push s.swr (Bytes.of_string resp));
    Reactor.set_read_interest f.reactor s.sfd false;
    s.stimer <-
      Some (Reactor.after f.reactor drain_grace (fun () -> close_scrape f s));
    flush_scrape f s
  end

let read_scrape f s =
  match Unix.read s.sfd f.scratch 0 (Bytes.length f.scratch) with
  | 0 when s.responded -> close_scrape f s
  | _ -> respond f s
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> close_scrape f s

let admit_scrape f fd =
  Unix.set_nonblock fd;
  let s =
    { sfd = fd; swr = Reactor.Writer.create ~now:(Unix.gettimeofday ()) fd;
      responded = false; sdead = false; stimer = None }
  in
  f.scrapes <- s :: f.scrapes;
  Reactor.register f.reactor fd
    ~readable:(fun () -> read_scrape f s)
    ~writable:(fun () -> flush_scrape f s)
    ();
  Reactor.set_write_interest f.reactor fd false;
  s.stimer <- Some (Reactor.after f.reactor silent_after (fun () -> respond f s))

(* ---------------- housekeeping (idle + stalled consumers) ------------ *)

(* A leaked client — connected, silent, holding a session against
   max_sessions — gets a typed goodbye and the door. Only genuinely
   quiescent connections qualify: anything with unanswered requests or
   undrained output is still being served, and a flow-controlled
   connection legitimately sends nothing for long stretches. *)
let reap_idle f now =
  let h = handler f in
  let idle = f.cfg.idle_timeout in
  if idle > 0. then
    List.iter
      (fun c ->
        if
          (not c.closing)
          && (not (h.flow_controlled c))
          && (not (h.busy c))
          && (not (Reactor.Writer.has_pending c.wr))
          && now -. c.last_active > idle
        then begin
          push_response c 0L
            (Protocol.Goodbye (Printf.sprintf "idle for %.0fs, closing" idle));
          close_after_flush c
        end)
      f.conns

(* Consumers with pending output that accept no bytes at all: bounded
   buffers stop the memory bleed, this stops the fd bleed. A connection
   pushed to since the last flush (say, the Goodbye just queued above)
   has not been offered its bytes yet, so its stall is judged next
   time. *)
let reap_stalled f now =
  let h = handler f in
  List.iter
    (fun c ->
      let limit =
        if h.flow_controlled c then flow_stall_timeout
        else if f.cfg.idle_timeout > 0. then f.cfg.idle_timeout
        else default_stall_grace
      in
      if (not c.marked) && Reactor.Writer.stalled_for c.wr ~now > limit then
        close c)
    f.conns

let start f h =
  f.handler <- Some h;
  let r = f.reactor in
  let listener fd admit =
    Unix.set_nonblock fd;
    Reactor.register r fd ~readable:(fun () -> accept_all f fd admit) ()
  in
  listener f.listen_fd (admit_client f);
  Option.iter (fun fd -> listener fd (admit_scrape f)) f.metrics_fd;
  Reactor.register r f.stop_r
    ~readable:(fun () ->
      (try ignore (Unix.read f.stop_r f.scratch 0 64)
       with Unix.Unix_error _ -> ());
      (* Stop accepting; scrapes in flight finish. *)
      f.stopping <- true;
      Reactor.set_read_interest r f.listen_fd false;
      Option.iter (fun fd -> Reactor.set_read_interest r fd false) f.metrics_fd)
    ();
  (* With idle reaping on, wake often enough that a connection is closed
     within about a quarter timeout of earning it. *)
  let period =
    if f.cfg.idle_timeout > 0. then
      Float.min 1.0 (Float.max 0.02 (f.cfg.idle_timeout /. 4.))
    else 0.5
  in
  let rec housekeeping () =
    let now = Unix.gettimeofday () in
    if not f.stopping then reap_idle f now;
    reap_stalled f now;
    if not f.shut then ignore (Reactor.after r period housekeeping)
  in
  ignore (Reactor.after r period housekeeping)

let shutdown f =
  f.shut <- true;
  List.iter
    (fun fd ->
      Reactor.deregister f.reactor fd;
      close_quietly fd)
    (f.listen_fd :: Option.to_list f.metrics_fd);
  List.iter (close_scrape f) f.scrapes;
  let all = f.conns in
  List.iter flush all;
  List.iter close all;
  f.dirty <- [];
  close_quietly f.stop_r;
  close_quietly f.stop_w
