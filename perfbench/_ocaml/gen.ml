(* The load generator: one single-threaded process driving at most a
   handful of pipelined connections with the public wire codec
   ([Server.Protocol]). An item is one read, or one whole transaction
   whose frames are written back to back; its latency runs from when it
   was due to when its last response arrived. *)

module P = Server.Protocol
open Util

type cls = Read | Write

type verdict = Good | Refused of string | Wrong of string

type op = {
  req : P.request;
  check : sent:float -> recv:float -> P.response -> verdict;
}

type item = {
  cls : cls;
  ops : op array;
  on_sent : float -> unit;  (** the time the item's last frame left *)
  on_done : sent:float -> recv:float -> ok:bool -> unit;
}

let item ?(on_sent = ignore) ?(on_done = fun ~sent:_ ~recv:_ ~ok:_ -> ())
    cls ops =
  { cls; ops; on_sent; on_done }

(* Typed failures count against [fail_ratio]; a response of the wrong
   shape is a wrong answer. *)
let refusal = function
  | P.Overloaded m -> Some ("overloaded: " ^ m)
  | P.Error m -> Some ("error: " ^ m)
  | P.Conflict m -> Some ("conflict: " ^ m)
  | P.Partial { msg; _ } -> Some ("partial: " ^ msg)
  | P.Read_only m -> Some ("read-only: " ^ m)
  | P.Goodbye m -> Some ("goodbye: " ^ m)
  | P.Invalid m -> Some ("invalid: " ^ m)
  | _ -> None

let expect_ack ~sent:_ ~recv:_ = function
  | P.Ack _ -> Good
  | r -> (
      match refusal r with Some m -> Refused m | None -> Wrong "expected ack")

let ack req = { req; check = expect_ack }

type state = {
  it : item;
  due : float;
  mutable left : int;
  mutable ok : bool;
  mutable last_sent : float;
}

type conn = {
  fd : Unix.file_descr;
  framer : P.Framer.t;
  buf : Bytes.t;
  mutable next_id : int64;
  pending : (int64, state * op) Hashtbl.t;
  mutable inflight : int;  (** items *)
  mutable timed : bool;  (** its items' latencies are recorded *)
}

(* What one phase observed. *)
type result = {
  read_ms : Sample.t;
  write_ms : Sample.t;
  late_ms : Sample.t;
  mutable attempted : int;  (** ops *)
  mutable failed : int;
  mutable wrong : int;
  mutable completed : int;  (** ops answered before the phase ended *)
  done_at : Sample.t;  (** when each of those was answered *)
  mutable phase_start : float;
  mutable first_error : string option;
  mutable spans : (P.request * float * float * int) list;
      (** traced runs only, newest first: (request, sent, answered,
          response bytes) per op *)
  mutable payloads : Bytes.t list;  (** replays only: raw responses *)
  trace : bool;
  keep_payloads : bool;
  mutable phase_end : float;
}

let result ?(trace = false) ?(keep_payloads = false) () =
  { read_ms = Sample.create (); write_ms = Sample.create ();
    late_ms = Sample.create (); attempted = 0; failed = 0; wrong = 0;
    completed = 0; done_at = Sample.create (); phase_start = 0.;
    phase_end = infinity; first_error = None; spans = []; payloads = [];
    trace; keep_payloads }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; framer = P.Framer.create (); buf = Bytes.create 65536;
    next_id = 1L; pending = Hashtbl.create 64; inflight = 0; timed = true }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all fd b =
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let send_frame c req =
  let id = c.next_id in
  c.next_id <- Int64.succ id;
  write_all c.fd (P.encode_request ~id req);
  id

(* Synchronous call outside the timed phases (set-up, scrapes,
   read-back); nothing else may be in flight on [c]. *)
let rpc c req =
  assert (Hashtbl.length c.pending = 0);
  let id = send_frame c req in
  let rec wait () =
    match P.Framer.next c.framer with
    | Error e -> failwith ("framing: " ^ P.error_to_string e)
    | Ok (Some payload) -> (
        match P.decode_response payload with
        | Ok (rid, resp) when rid = id -> resp
        | Ok _ -> wait ()
        | Error e -> failwith ("decode: " ^ P.error_to_string e))
    | Ok None ->
        let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
        if n = 0 then failwith "server closed the connection";
        P.Framer.feed c.framer c.buf n;
        wait ()
  in
  wait ()

let metrics c =
  match rpc c P.Metrics with
  | P.Ack doc -> Scrape.parse doc
  | _ -> failwith "metrics scrape failed"

(* [late]: the item had a due time of its own (open loop, paced), so
   how late it left is recorded. *)
let send_item ?(late = true) res c it ~due =
  let st = { it; due; left = Array.length it.ops; ok = true; last_sent = 0. } in
  if late then Sample.add res.late_ms ((now () -. due) *. 1000.);
  Array.iter
    (fun op ->
      let id = send_frame c op.req in
      Hashtbl.replace c.pending id (st, op);
      res.attempted <- res.attempted + 1)
    it.ops;
  st.last_sent <- now ();
  it.on_sent st.last_sent;
  c.inflight <- c.inflight + 1

let note_failure res msg =
  if res.first_error = None then res.first_error <- Some msg

(* Read what is available on [c] and settle every complete response.
   [on_item c] runs after each finished item (the closed loop refills
   the window there). *)
let pump res c ~on_item =
  let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
  if n = 0 then failwith "server closed a load connection";
  let recv = now () in
  P.Framer.feed c.framer c.buf n;
  let rec drain () =
    match P.Framer.next c.framer with
    | Error e -> failwith ("framing: " ^ P.error_to_string e)
    | Ok None -> ()
    | Ok (Some payload) ->
        (match P.decode_response payload with
        | Error e -> failwith ("undecodable response: " ^ P.error_to_string e)
        | Ok (id, resp) -> (
            match Hashtbl.find_opt c.pending id with
            | None ->
                res.failed <- res.failed + 1;
                note_failure res "response to no request (admission/goodbye)"
            | Some (st, op) ->
                Hashtbl.remove c.pending id;
                if res.trace then begin
                  res.spans <-
                    (op.req, st.last_sent, recv, Bytes.length payload + 4)
                    :: res.spans;
                  if res.keep_payloads then res.payloads <- payload :: res.payloads
                end;
                if recv <= res.phase_end then begin
                  res.completed <- res.completed + 1;
                  Sample.add res.done_at recv
                end;
                (match op.check ~sent:st.last_sent ~recv resp with
                | Good -> ()
                | Refused m ->
                    st.ok <- false;
                    res.failed <- res.failed + 1;
                    note_failure res m
                | Wrong m ->
                    st.ok <- false;
                    res.failed <- res.failed + 1;
                    res.wrong <- res.wrong + 1;
                    note_failure res ("wrong answer: " ^ m));
                st.left <- st.left - 1;
                if st.left = 0 then begin
                  c.inflight <- c.inflight - 1;
                  let ms = (recv -. st.due) *. 1000. in
                  if st.ok && c.timed then
                    Sample.add
                      (match st.it.cls with Read -> res.read_ms | Write -> res.write_ms)
                      ms;
                  st.it.on_done ~sent:st.last_sent ~recv ~ok:st.ok;
                  on_item c
                end));
        drain ()
  in
  drain ()

let wait_readable res conns timeout ~on_item =
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  match Unix.select fds [] [] (Float.max 0. timeout) with
  | r, _, _ ->
      Array.iter (fun c -> if List.memq c.fd r then pump res c ~on_item) conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let busy conns = Array.exists (fun c -> c.inflight > 0) conns

let drain_all res conns =
  let deadline = now () +. 60. in
  while busy conns do
    if now () > deadline then failwith "server stopped answering";
    wait_readable res conns 1.0 ~on_item:ignore
  done

(* Open loop: [sched] holds (offset from start in seconds, connection
   index, item maker), ascending. Each item is made and written when
   due, whatever is still in flight. *)
let open_loop res conns sched =
  let n = Array.length sched in
  let t0 = now () +. 0.002 in
  let i = ref 0 in
  while !i < n do
    let off, ci, make = sched.(!i) in
    let due = t0 +. off in
    let t = now () in
    if t >= due then begin
      send_item res conns.(ci) (make ()) ~due;
      incr i
    end
    else wait_readable res conns (due -. t) ~on_item:ignore
  done;
  drain_all res conns

(* Closed loop: every connection keeps [window] items in flight for
   [seconds]; [next ci] makes the next item for connection [ci]. Items
   of [paced] (offset from the start, connection, maker; ascending) are
   sent when due instead, as in the open loop, on connections whose
   window is 0. [tick] runs about every 10 ms. *)
let closed_loop ?tick ?(paced = [||]) res conns ~window ~seconds ~next =
  let tick_every = 0.01 in
  let t0 = now () in
  res.phase_start <- t0;
  res.phase_end <- t0 +. seconds;
  let index c =
    let rec go i = if conns.(i) == c then i else go (i + 1) in
    go 0
  in
  let refill c =
    let ci = index c in
    while c.inflight < window.(ci) && now () < res.phase_end do
      send_item ~late:false res c (next ci) ~due:(now ())
    done
  in
  let p = ref 0 in
  let next_due () =
    if !p < Array.length paced then
      let off, _, _ = paced.(!p) in
      t0 +. off
    else infinity
  in
  let send_due () =
    while next_due () <= now () do
      let off, ci, make = paced.(!p) in
      send_item res conns.(ci) (make ()) ~due:(t0 +. off);
      incr p
    done
  in
  Array.iter refill conns;
  let next_tick = ref (if Option.is_none tick then infinity else t0 +. tick_every) in
  while now () < res.phase_end do
    send_due ();
    let t = now () in
    wait_readable res conns
      (Float.min (Float.min (res.phase_end -. t) (!next_tick -. t)) (next_due () -. t))
      ~on_item:refill;
    match tick with
    | Some f when now () >= !next_tick ->
        f ();
        next_tick := now () +. tick_every
    | _ -> ()
  done;
  drain_all res conns

(* Ops answered per second in each of [slices] equal time slices of a
   closed-loop phase. *)
let slice_rates ~slices res =
  let d = (res.phase_end -. res.phase_start) /. float_of_int slices in
  let n = Array.make slices 0 in
  Array.iter
    (fun t ->
      let k = int_of_float ((t -. res.phase_start) /. d) in
      if k >= 0 && k < slices then n.(k) <- n.(k) + 1)
    (Sample.to_array res.done_at);
  Array.map (fun k -> float_of_int k /. d) n

(* Ops answered per second in one closed-loop phase: the mean of the
   middle half of twenty slices. *)
let throughput res = middle_mean (slice_rates ~slices:20 res)

(* One op at a time: every op's round trip is its own (the traced
   run's root spans). A transaction's hooks ride on its last op. *)
let sequential res conns items =
  List.iter
    (fun (ci, (it : item)) ->
      let k = Array.length it.ops in
      Array.iteri
        (fun j op ->
          let last = j = k - 1 in
          let one =
            { it with
              ops = [| op |];
              on_sent = (if last then it.on_sent else ignore);
              on_done =
                (if last then it.on_done else fun ~sent:_ ~recv:_ ~ok:_ -> ()) }
          in
          send_item ~late:false res conns.(ci) one ~due:(now ());
          drain_all res conns)
        it.ops)
    items
