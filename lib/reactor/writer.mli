(** Bounded, non-blocking output buffer for one connection.

    Frames are queued whole and flushed opportunistically with
    non-blocking writes; partial writes keep a cursor into the head
    chunk, so flushing is O(bytes written), not O(bytes buffered).
    The high-water mark is the backpressure trigger: [push] reports
    when the buffer has crossed it and the owner decides the policy —
    protocol connections get a typed [Overloaded] and are closed,
    replication subscribers have shipping paused until they drain. *)

type t

type flush = Drained  (** buffer empty *)
  | Pending  (** bytes remain; poll for writability *)
  | Peer_gone  (** connection reset/closed under us *)

(** The high-water mark when [create] is given none: 4 MiB. *)
val default_high_water : int

val create : ?high_water:int -> now:float -> Unix.file_descr -> t

val fd : t -> Unix.file_descr
val high_water : t -> int

(** Queue a whole frame. Returns [false] when the buffer is above the
    high-water mark after the push — the frame is still queued (a
    final typed frame may ride out past the mark); the caller must
    apply its backpressure policy. *)
val push : t -> bytes -> bool

(** Write as much as the socket accepts without blocking. *)
val flush : t -> now:float -> flush

val pending_bytes : t -> int
val has_pending : t -> bool

(** Seconds since the last successful write progress, when bytes are
    pending ([0.] when drained). Drives stalled-consumer reaping. *)
val stalled_for : t -> now:float -> float

(** Largest [pending_bytes] ever observed — test/metrics hook for
    checking the high-water mark is honored. *)
val max_buffered : t -> int
