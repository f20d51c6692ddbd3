(* perfbench — the repository's served-interval benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Starts the workload's servers (rikitd-shaped dispatchers, a replica
   or a router, built on the public Server APIs by this executable in
   server mode, [--serve ROLE --peers PORTS]), drives them from this
   single-threaded process over at most two load connections, checks
   every answer, and prints one line per metric followed by a JSON
   object as the last line of standard output. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 they are the
   per-layer ones, from a separate traced run. Exits 1 on any wrong
   answer or failed check, 2 on a usage error and 3 when the generator
   fell behind its own schedule (the run is invalid, not slow). *)

open Util
module P = Server.Protocol

(* Set-ups per run; setup_s is their median. *)
let setups = 3

(* Beyond this the open loop no longer offers the stated rate. *)
let late_limit_ms = 50.

(* How a run's --seconds divide over [blocks] blocks: the open loop,
   the waiting clients and the pipelined closed loop, plus one
   unmeasured closed-loop warm-up (pipelined load grows the server's
   heap and queues). *)
let open_share = 0.3
let warm_share = 0.1
let sync_share = 0.3
let closed_share = 0.3
let blocks = 10

(* Length of the request stream the traced run replays. *)
let replay_seconds = 2.

(* Length of the traced run's closed loop. *)
let traced_closed_seconds = 1.

(* Length of the traced run's replica-lag sampling. *)
let lag_seconds = 2.

(* Bytes of user data per inserted row: lower, upper and id. *)
let row_bytes = 24.

type measured = {
  setup_s : float array;
  setup_rss_mb : float array;  (** VmHWM of the servers when set up *)
  opens : Gen.result array;  (** the open loop, block by block *)
  warm : Gen.result;  (** the closed loop's unmeasured warm-up *)
  syncs : Gen.result array;
      (** one request in flight per timed connection, the spec's paced
          items beside them *)
  closeds : Gen.result array;  (** the pipelined closed loop *)
  scrapes : (Procs.t * Scrape.t array) list;
      (** per server: before the first open loop, after it, at the end *)
  rss_mb : float;  (** VmHWM of the servers after the run *)
}

(* Every server's counters, read over its own Metrics op: the front on
   the first load connection, the others on a short-lived connection.
   Always outside the timed phases. *)
let metrics_of (run : Wl.run) (p : Procs.t) =
  if p == run.front then Gen.metrics run.conns.(0)
  else begin
    let c = Gen.connect p.port in
    Fun.protect ~finally:(fun () -> Gen.close c) (fun () -> Gen.metrics c)
  end

let scrape_all (run : Wl.run) = List.map (metrics_of run) run.procs

let rss_mb (run : Wl.run) =
  List.fold_left (fun a p -> a +. Procs.peak_rss_mb p) 0. run.procs

let stop_run (run : Wl.run) =
  Array.iter Gen.close run.conns;
  List.iter Procs.stop run.procs

(* The open-loop schedule cut into [blocks] consecutive pieces, each
   re-based to start at 0. *)
let split_schedule sched ~length =
  Array.init blocks (fun b ->
      let lo = length *. fi b /. fi blocks and hi = length *. fi (b + 1) /. fi blocks in
      Array.of_list
        (List.filter_map
           (fun (off, ci, mk) -> if off >= lo && off < hi then Some (off -. lo, ci, mk) else None)
           (Array.to_list sched)))

(* Set up several times (fork until warm and answering), then the
   untraced loops, alternating in [blocks] blocks so that a slow or
   fast spell of the machine lands in a few blocks, which the medians
   and middle-half means over blocks then leave out. A block runs the
   open loop, then clients that each wait for every reply (one request
   in flight on each timed connection, while any other keeps the
   server busy or sends the paced items: the latency figures), then
   the pipelined closed loop (the throughput figure).
   The last set-up stays up. Scrapes: 0 before the first open block,
   1 after it, 2 at the end. *)
let measure ~seed ~seconds (spec : Wl.spec) =
  let setup_s = Array.make setups 0. and setup_rss_mb = Array.make setups 0. in
  let run = ref None in
  for k = 0 to setups - 1 do
    let t0 = now () in
    let r = spec.start () in
    setup_s.(k) <- now () -. t0;
    setup_rss_mb.(k) <- rss_mb r;
    if k < setups - 1 then stop_run r else run := Some r
  done;
  let run = Option.get !run in
  (* separate streams, so that the open loop's requests do not depend
     on how many the closed loop managed *)
  let open_rng = Workload.Prng.create ~seed:((seed * 1000) + 17) in
  let next = spec.next (Workload.Prng.create ~seed:((seed * 1000) + 23)) in
  let paced_rng = Workload.Prng.create ~seed:((seed * 1000) + 31) in
  let length = seconds *. open_share in
  let pieces = split_schedule (spec.schedule open_rng length) ~length in
  let closed ?(window = spec.window) ?paced share =
    let res = Gen.result () in
    let seconds = seconds *. share /. fi blocks in
    let paced = Option.map (fun f -> f paced_rng seconds) paced in
    Gen.closed_loop ?paced res run.conns ~window ~seconds ~next;
    res
  in
  let m0 = scrape_all run in
  let m1 = ref m0 and warm = ref None in
  let opens = Array.map (fun _ -> Gen.result ()) pieces in
  let syncs = Array.map (fun _ -> Gen.result ()) pieces in
  let closeds =
    Array.mapi
      (fun b piece ->
        Gen.open_loop opens.(b) run.conns piece;
        if b = 0 then begin
          m1 := scrape_all run;
          warm := Some (closed (warm_share *. fi blocks))
        end;
        Array.iteri (fun i c -> c.Gen.timed <- spec.sync_window.(i) = 1) run.conns;
        syncs.(b) <- closed ~window:spec.sync_window ~paced:spec.paced sync_share;
        Array.iter (fun c -> c.Gen.timed <- true) run.conns;
        closed closed_share)
      pieces
  in
  let m1 = !m1 and warm = Option.get !warm in
  let m2 = scrape_all run in
  spec.finish run;
  let rss_mb = rss_mb run in
  let scrapes =
    List.map2 (fun p (a, (b, c)) -> (p, [| a; b; c |])) run.procs
      (List.combine m0 (List.combine m1 m2))
  in
  (run, { setup_s; setup_rss_mb; opens; warm; syncs; closeds; scrapes; rss_mb })

(* ---- counters of the untraced run ---- *)

let read_ops = [ "intersect"; "allen"; "execute"; "sql"; "ping" ]
let write_ops = [ "begin"; "insert"; "delete"; "commit" ]

let is_read = function
  | P.Intersect _ | P.Allen _ | P.Execute _ | P.Sql _ | P.Ping -> true
  | _ -> false

(* Server counter deltas between scrapes [i] and [j] (0 before the
   first open loop, 1 after it, 2 at the end). [front] answers the load;
   [dbs] hold the data: the front itself, or the shards behind a
   router. *)
type counts = {
  d : int -> int -> string -> float;  (** summed over [dbs] *)
  f : int -> int -> string -> float;  (** on the front *)
  ops : int -> int -> string list -> float;  (** op counts on the front *)
  family : int -> int -> string -> float;  (** labelled family on the front *)
  front_last : Scrape.t;  (** the front's final scrape *)
}

let counts (run : Wl.run) (m : measured) =
  let dbs =
    if run.front.name = "router" then
      List.filter (fun p -> p != run.front) run.procs
    else [ run.front ]
  in
  let sum procs i j g =
    List.fold_left
      (fun acc ((p : Procs.t), (s : Scrape.t array)) ->
        if List.memq p procs then acc +. g s.(j) -. g s.(i) else acc)
      0. m.scrapes
  in
  let f i j key = sum [ run.front ] i j (fun s -> Scrape.get s key) in
  { d = (fun i j key -> sum dbs i j (fun s -> Scrape.get s key));
    f;
    ops = (fun i j names ->
      List.fold_left (fun a op -> a +. f i j (Scrape.op_count op)) 0. names);
    family = (fun i j name -> sum [ run.front ] i j (fun s -> Scrape.family_sum s name));
    front_last = (List.assq run.front m.scrapes).(2) }

(* ---- reporting ---- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

(* A metric the workload has no use for: reported as 0 with the reason. *)
let na name unit_ why = { name; value = 0.; unit_; note = "n/a: " ^ why }

let samples_note xs = Printf.sprintf "n=%d" (Array.length xs)

(* The 99th percentile; n/a on fewer than [p99_min] samples, where it
   would be the maximum. *)
let p99 ?(what = "") name unit_ xs =
  let n = Array.length xs in
  if n < p99_min then na name unit_ (Printf.sprintf "%d samples, a p99 needs %d" n p99_min)
  else
    metric name unit_ (percentile xs 0.99)
      ~note:(Printf.sprintf "n=%d, %d samples beyond%s" n
               (n - int_of_float (Float.ceil (0.99 *. fi n)))
               (if what = "" then "" else ", " ^ what))

let p50_p99 prefix xs what =
  [ metric (prefix ^ "_p50_ms") "ms" (percentile xs 0.5)
      ~note:(Printf.sprintf "n=%d, %s" (Array.length xs) what);
    p99 (prefix ^ "_p99_ms") "ms" xs ]

let seconds_of rs =
  Array.fold_left (fun a (r : Gen.result) -> a +. (r.phase_end -. r.phase_start)) 0. rs

let phases m =
  Array.to_list m.opens @ (m.warm :: Array.to_list m.syncs) @ Array.to_list m.closeds

(* A sample pooled over blocks. *)
let pooled rs f = Array.concat (Array.to_list (Array.map (fun r -> Sample.to_array (f r)) rs))

(* The median over blocks of a per-block figure. *)
let block_median xs f = median (Array.map f xs)

(* Slices per closed-loop block. *)
let slices = 10

(* Ops answered per second in the closed loop: the mean of the middle
   half of every block's time slices, pooled, so that a spell of the
   machine that fills whole slices or a whole block is discarded. *)
let throughput m =
  middle_mean (Array.concat (Array.to_list (Array.map (Gen.slice_rates ~slices) m.closeds)))

(* A read-latency percentile of the waiting clients: median over blocks. *)
let sync_pct m p = block_median m.syncs (fun r -> percentile (Sample.to_array r.Gen.read_ms) p)
let attempted m = List.fold_left (fun a (r : Gen.result) -> a + r.attempted) 0 (phases m)
let failed m = List.fold_left (fun a (r : Gen.result) -> a + r.failed) 0 (phases m)
let wrong m = List.fold_left (fun a (r : Gen.result) -> a + r.wrong) 0 (phases m)

(* How late items with a due time of their own left: the open loop and
   the paced items beside the waiting clients. *)
let late m = Array.append (pooled m.opens (fun r -> r.late_ms)) (pooled m.syncs (fun r -> r.late_ms))

let record (spec : Wl.spec) key = Option.value ~default:"" (List.assoc_opt key spec.record)

(* The end-to-end metrics every workload has: the JSON record of an
   untraced run. *)
let end_to_end (spec : Wl.spec) m =
  let reads = pooled m.syncs (fun r -> r.read_ms) in
  let closed_ops = List.fold_left (fun a (r : Gen.result) -> a + r.completed) 0 (Array.to_list m.closeds) in
  [ metric "setup_s" "s" (median m.setup_s)
      ~note:(Printf.sprintf "median of %d set-ups: %s" setups
               (String.concat " "
                  (Array.to_list (Array.map (Printf.sprintf "%.3f") m.setup_s))));
    metric "read_p50_ms" "ms" (sync_pct m 0.5)
      ~note:(Printf.sprintf "n=%d, median of %d block medians (%s), %s"
               (Array.length reads) blocks
               (String.concat " "
                  (Array.to_list
                     (Array.map (fun r -> Printf.sprintf "%.3f" (percentile (Sample.to_array r.Gen.read_ms) 0.5)) m.syncs)))
               (record spec "latency"));
    metric "throughput_ops_s" "ops/s" (throughput m)
      ~note:(Printf.sprintf "mean of the middle half of %d slices pooled over %d blocks (block figures %s); %d ops in %.2f s closed loop, window %s"
               (slices * blocks) blocks
               (String.concat " "
                  (Array.to_list (Array.map (fun r -> Printf.sprintf "%.0f" (middle_mean (Gen.slice_rates ~slices r))) m.closeds)))
               closed_ops (seconds_of m.closeds)
               (String.concat "+"
                  (Array.to_list (Array.map string_of_int spec.window))));
    metric "server_rss_mb" "MB" m.rss_mb
      ~note:(Printf.sprintf "VmHWM summed over %d server processes after the run"
               (List.length m.scrapes)) ]

(* End-to-end metrics that some workloads lack, or that are too small
   on some to compare between runs. An untraced run prints them; the
   JSON record carries them with the traced run's metrics, because
   every metric of the untraced record must be steady on every
   workload. *)
let class_metrics (spec : Wl.spec) m c =
  let dev_reads = c.d 0 2 "rikit_device_reads_total" in
  let read_n = c.ops 0 2 read_ops in
  let reads = pooled m.syncs (fun r -> r.read_ms) in
  let nr = Array.length reads in
  let open_reads = pooled m.opens (fun r -> r.read_ms) in
  let writes = pooled m.opens (fun r -> r.write_ms) in
  let inserts = c.ops 0 2 [ "insert" ] in
  let no_writes = "read-only workload" in
  metric "read_p90_ms" "ms" (sync_pct m 0.9)
    ~note:(Printf.sprintf "n=%d, median of %d block p90s, %s" nr blocks (record spec "latency"))
  :: p99 "read_p99_ms" "ms" reads ~what:"pooled over blocks, waiting clients"
  :: metric "setup_rss_mb" "MB" (median m.setup_rss_mb)
       ~note:(Printf.sprintf "VmHWM summed over the servers at the end of set-up, median of %d" setups)
  :: p50_p99 "open.read" open_reads
       (Printf.sprintf "open loop %.0f items/s, random arrivals, timed from due" spec.open_rate)
  @ (if Array.length writes = 0 then
     [ na "write_p50_ms" "ms" no_writes; na "write_p99_ms" "ms" no_writes ]
   else p50_p99 "write" writes "open loop, BEGIN due to COMMIT ack")
  @ [ metric "io_per_read" "blocks" (ratio dev_reads read_n)
        ~note:(Printf.sprintf "%.0f device reads / %.0f read ops, whole run"
                 dev_reads read_n);
      (if inserts = 0. then na "write_amp" "ratio" no_writes
       else
         let journal = c.f 0 2 "rikit_journal_bytes"
         and blocks = c.f 0 2 "rikit_device_writes_total" in
         metric "write_amp" "ratio"
           ((journal +. (blocks *. fi Wl.block_bytes)) /. (inserts *. row_bytes))
           ~note:(Printf.sprintf "(%.0f journal bytes + %.0f block writes x 2 KB) / (%.0f inserts x %.0f B)"
                    journal blocks inserts row_bytes));
      metric "fail_ratio" "ratio" (ratio (fi (failed m)) (fi (attempted m)))
        ~note:(Printf.sprintf "%d of %d ops, untraced" (failed m) (attempted m)) ]

let print_lines metrics =
  List.iter
    (fun x -> Printf.printf "%-36s %14.6g %-7s %s\n" x.name x.value x.unit_ x.note)
    metrics

let print_json ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_num x.value) x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* ---- the traced run ---- *)

(* Spans of the replay, written once as JSON lines when the run ends:
   the client round trip (root), Session.handle on twin A, and the
   next-inner entry point on twin B. Twin spans carry their own clock. *)
let write_spans path roots (ops : Replay.op array) =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      let line req name parent t0 us =
        Printf.fprintf oc
          "{\"req\": %d, \"name\": %S, \"parent\": %s, \"start\": %.6f, \"end\": %.6f}\n"
          req name parent t0 (t0 +. (us /. 1e6))
      in
      Array.iteri
        (fun i (o : Replay.op) ->
          let req, sent, recv, _ = roots.(i) in
          let root = "client." ^ P.request_op_name req in
          line i root "null" sent ((recv -. sent) *. 1e6);
          if o.a_us > 0. then line i "session.handle" (Printf.sprintf "%S" root) o.a_t0 o.a_us;
          let inner =
            match o.inner with
            | Replay.Memtier -> Some "memtier.probe"
            | Replay.Ritree -> Some "ritree.intersecting"
            | Replay.Exec -> Some "exec.execute"
            | Replay.Commit -> Some "txn.commit+journal.force"
            | Replay.No_inner -> None
          in
          Option.iter (fun n -> line i n "\"session.handle\"" o.b_t0 o.b_us) inner)
        ops)

let traced ~seed (spec : Wl.spec) (run : Wl.run) (m : measured) c =
  let is_routed = run.front.name = "router" in
  let shards = List.filter (fun p -> p != run.front) run.procs in
  let replica = List.filter (fun (p : Procs.t) -> p.name = "replica") run.procs in
  (* 1. traced closed loop on the live servers, spans kept in memory *)
  let tres = Gen.result ~trace:true () in
  let trng = Workload.Prng.create ~seed:((seed * 1000) + 29) in
  Gen.closed_loop tres run.conns ~window:spec.window
    ~seconds:traced_closed_seconds
    ~next:(spec.next trng);
  let traced_thr = Gen.throughput tres in
  (* the replica's lag gauge, sampled every 10 ms while the paced
     writes run beside the waiting clients *)
  let lag = Sample.create () in
  List.iter
    (fun (p : Procs.t) ->
      let rc = Gen.connect p.port in
      let tick () = Sample.add lag (Scrape.get (Gen.metrics rc) "rikit_repl_lag_bytes") in
      Fun.protect ~finally:(fun () -> Gen.close rc) (fun () ->
          Gen.closed_loop ~tick
            ~paced:(spec.paced (Workload.Prng.create ~seed:((seed * 1000) + 37)) lag_seconds)
            (Gen.result ()) run.conns ~window:spec.sync_window ~seconds:lag_seconds
            ~next:(spec.next trng)))
    replica;
  (* 2. root spans: the replay stream one op at a time *)
  let items =
    spec.replay (Workload.Prng.create ~seed:((seed * 1000) + 17)) replay_seconds
  in
  let s0 = List.map (fun p -> (p, metrics_of run p)) run.procs in
  let rres = Gen.result ~trace:true ~keep_payloads:true () in
  Gen.sequential rres run.conns items;
  let s1 = List.map (fun p -> (p, metrics_of run p)) run.procs in
  let roots = Array.of_list (List.rev rres.spans) in
  let payloads = Array.of_list (List.rev rres.payloads) in
  if rres.failed > 0 then
    failwith ("replay: " ^ Option.value ~default:"failed" rres.first_error);
  stop_run run;
  (* 3. inner spans on twin stacks *)
  let ops = Replay.flatten items in
  let nops = List.length ops in
  if nops <> Array.length roots then failwith "replay: root spans lost";
  let twins_a = Array.init (Array.length spec.dbs) (Replay.twin spec) in
  let mem_path = Replay.run_a spec twins_a ops in
  let prep_us = Replay.prepare_us twins_a.(0) in
  let tree_a = Server.Session.tree twins_a.(0).Replay.sh in
  let btree_height =
    max
      (Btree.height (Relation.Table.Index.tree (Ritree.Ri_tree.lower_index tree_a)))
      (Btree.height (Relation.Table.Index.tree (Ritree.Ri_tree.upper_index tree_a)))
  in
  Array.iter (fun t -> Array.iter Server.Session.close t.Replay.sess) twins_a;
  Gc.full_major ();
  let ins_us =
    if is_routed then [||]
    else begin
      let b = Replay.twin spec 0 in
      Replay.run_b b ops mem_path;
      Replay.count_ritree b ops;
      Replay.ritree_inserts b ops
    end
  in
  (* protocol costs, replayed on the recorded frames *)
  let reqs = List.map (fun (o : Replay.op) -> o.req) ops in
  let reps = 20 in
  let _, enc_us =
    Replay.time (fun () ->
        for _ = 1 to reps do
          List.iter (fun r -> ignore (P.encode_request ~id:1L r)) reqs
        done)
  in
  let _, dec_us =
    Replay.time (fun () ->
        for _ = 1 to reps do
          Array.iter (fun b -> ignore (P.decode_response b)) payloads
        done)
  in
  let ops = Array.of_list ops in
  (try write_spans (Printf.sprintf ".bench_build/spans-%s-%d.jsonl" spec.name seed) roots ops
   with Sys_error e -> log "spans not written: %s" e);
  (* 4. per-op self times *)
  let op_mean procs op =
    let n, s =
      List.fold_left
        (fun (n, s) p ->
          let a = List.assq p s0 and b = List.assq p s1 in
          ( n +. Scrape.delta b a (Scrape.op_count op),
            s +. Scrape.delta b a (Scrape.op_sum op) ))
        (0., 0.) procs
    in
    if n = 0. then nan else s /. n
  in
  let rtt = Array.map (fun (_, s, r, _) -> (r -. s) *. 1e6) roots in
  let name (o : Replay.op) = P.request_op_name o.req in
  let srv = Array.map (fun o -> op_mean [ run.front ] (name o)) ops in
  let leg = Array.map (fun o -> op_mean shards (name o)) ops in
  let pick pred g =
    let out = ref [] in
    Array.iteri (fun i o -> if pred o then out := g i o :: !out) ops;
    Array.of_list (List.rev !out)
  in
  let mean_of pred g = mean (pick pred g) in
  let all_ops _ = true in
  let reads (o : Replay.op) = is_read o.req in
  let commits (o : Replay.op) = o.req = P.Commit in
  let client_mean = mean rtt in
  let serve_self = mean_of all_ops (fun i _ -> rtt.(i) -. srv.(i)) in
  let router_self =
    if is_routed then mean_of all_ops (fun i _ -> srv.(i) -. leg.(i)) else 0.
  in
  let session_self = mean_of all_ops (fun _ o -> o.a_us -. o.b_us) in
  let inner_self k = mean_of all_ops (fun _ o -> if o.inner = k then o.b_us else 0.) in
  let memtier_self = inner_self Replay.Memtier in
  let ritree_self = inner_self Replay.Ritree in
  let exec_self = inner_self Replay.Exec in
  let txn_self = mean_of all_ops (fun _ o -> o.txn_us) in
  let journal_self = mean_of all_ops (fun _ o -> o.force_us) in
  let unattributed =
    client_mean
    -. (serve_self +. router_self +. session_self +. memtier_self +. ritree_self
        +. exec_self +. txn_self +. journal_self)
  in
  Printf.printf "traced replay: %d ops, client mean %.1f us; self time by layer:\n"
    nops client_mean;
  List.iter
    (fun (k, v) ->
      Printf.printf "  %-34s %10.1f us  %5.1f%%\n" k v (100. *. ratio v client_mean))
    [ ("serve (reactor+dispatcher+net)", serve_self);
      ("router (op time - shard legs)", router_self);
      ((if is_routed then "session (incl. inner layers)" else "session"), session_self);
      ("memtier", memtier_self); ("ritree+btree+pool+device", ritree_self);
      ("exec (engine/planner)", exec_self); ("txn (stage_commit)", txn_self);
      ("journal (commit_force)", journal_self); ("unattributed", unattributed) ];
  (* 5. counters of the untraced run *)
  let read_n01 = c.ops 0 1 read_ops in
  let all_n01 = c.ops 0 1 (read_ops @ write_ops) in
  let commits02 = c.ops 0 2 [ "commit" ] in
  let writes02 = c.ops 0 2 [ "insert"; "delete" ] in
  let has_writes = commits02 > 0. in
  let no_writes = "read-only workload" in
  let no_router = "no router on this workload" in
  let no_tier = "hot tier disabled on this workload" in
  let no_ritree =
    if is_routed then "routed: the RI-tree is not split out of the shard session"
    else "the hot tier served every typed read"
  in
  let hot = Array.exists (fun (db : Wl.db) -> db.hot_tier_mb > 0) spec.dbs in
  let ritree_ops = pick (fun o -> o.inner = Replay.Ritree) (fun _ o -> o) in
  let sum_ints f = Array.fold_left (fun a o -> a + f o) 0 ritree_ops in
  let session_reads = pick reads (fun _ o -> o.a_us) in
  let session_commits = pick commits (fun _ o -> o.a_us) in
  let late = late m in
  let read_rem = mean_of reads (fun i _ -> rtt.(i) -. srv.(i)) in
  let untraced_thr = throughput m in
  let p50 name xs why =
    if Array.length xs = 0 then na name "us" why
    else metric name "us" (percentile xs 0.5) ~note:(samples_note xs)
  in
  let routed name unit_ v ~note =
    if is_routed then metric name unit_ v ~note else na name unit_ no_router
  in
  let written name unit_ v ~note =
    if has_writes then metric name unit_ v ~note else na name unit_ no_writes
  in
  [ metric "gen.late_p99_ms" "ms" (percentile late 0.99)
      ~note:(samples_note late ^ ", untraced open loop and paced items");
    metric "gen.ops_attempted" "count" (fi (attempted m)) ~note:"untraced, whole run";
    metric "protocol.encode_us" "us" (enc_us /. fi (reps * nops))
      ~note:(Printf.sprintf "n=%d requests x %d" nops reps);
    metric "protocol.decode_us" "us" (dec_us /. fi (reps * Array.length payloads))
      ~note:(Printf.sprintf "n=%d responses x %d" (Array.length payloads) reps);
    metric "protocol.resp_bytes_per_op" "bytes"
      (mean (Array.map (fun (_, _, _, b) -> fi b) roots))
      ~note:(samples_note roots);
    metric "serve.remainder_mean_us" "us" serve_self
      ~note:(Printf.sprintf "n=%d, client RTT minus the server's rikit_op_latency_us" nops);
    metric "dispatcher.queue_depth_peak" "count"
      (Scrape.get c.front_last "rikit_queue_depth_peak");
    metric "dispatcher.overload_rejections" "count" (c.f 0 2 "rikit_overload_rejections_total");
    written "dispatcher.commit_park_mean_us" "us"
      (mean_of commits (fun i _ -> rtt.(i) -. srv.(i)) -. read_rem)
      ~note:"COMMIT RTT - server COMMIT time - read remainder";
    routed "router.remainder_mean_us" "us" router_self
      ~note:"router op time minus mean shard op time";
    routed "router.fanout" "legs/op"
      (ratio (c.family 0 1 "rikit_shard_rpcs_total") read_n01) ~note:"first open block";
    routed "router.partial_ratio" "ratio"
      (ratio (c.f 0 1 "rikit_router_partial_results_total") read_n01) ~note:"first open block";
    routed "router.shard_errors" "count" (c.family 0 2 "rikit_shard_errors_total")
      ~note:"whole run";
    metric "session.read_p50_us" "us" (percentile session_reads 0.5)
      ~note:(samples_note session_reads);
    p99 "session.read_p99_us" "us" session_reads;
    (if has_writes then p50 "session.commit_p50_us" session_commits ""
     else na "session.commit_p50_us" "us" no_writes);
    (let h = c.d 0 1 "rikit_plan_cache_hits_total"
     and mi = c.d 0 1 "rikit_plan_cache_misses_total" in
     metric "exec.plan_cache_hit_ratio" "ratio" (ratio h (h +. mi))
       ~note:(Printf.sprintf "%.0f hits, %.0f misses of ad-hoc SQL, first open block" h mi));
    metric "exec.prepare_us" "us" prep_us ~note:"median of 20 PREPAREs through Session.handle";
    p50 "exec.execute_p50_us"
      (pick (fun o -> match o.req with P.Execute _ -> true | _ -> false) (fun _ o -> o.b_us))
      "no prepared Execute in this mix";
    (if hot then
       metric "memtier.probe_ratio" "ratio"
         (ratio (c.d 0 1 "rikit_hot_tier_probes_total") read_n01)
         ~note:"hot-tier probes per read op, first open block"
     else na "memtier.probe_ratio" "ratio" no_tier);
    (if hot then metric "memtier.builds" "count" (c.d 0 2 "rikit_hot_tier_builds_total")
       ~note:"whole run"
     else na "memtier.builds" "count" no_tier);
    (if hot && has_writes then
       metric "memtier.invalidations_per_1k_writes" "count"
         (1000. *. ratio (c.d 0 2 "rikit_hot_tier_invalidations_total") writes02)
         ~note:(Printf.sprintf "%.0f inserts+deletes" writes02)
     else na "memtier.invalidations_per_1k_writes" "count" "needs the hot tier and writes");
    p50 "ritree.intersect_p50_us" (Array.map (fun (o : Replay.op) -> o.b_us) ritree_ops)
      no_ritree;
    p50 "ritree.insert_p50_us" ins_us
      (if is_routed then no_ritree else no_writes);
    (if Array.length ritree_ops = 0 then na "ritree.probes_per_read" "probes" no_ritree
     else
       metric "ritree.probes_per_read" "probes"
         (fi (sum_ints (fun o -> o.probes)) /. fi (Array.length ritree_ops))
         ~note:(samples_note ritree_ops));
    (let xs =
       pick (fun o -> o.inner = Replay.Ritree || o.inner = Replay.Memtier)
         (fun _ o -> fi o.rows)
     in
     if Array.length xs = 0 then na "ritree.rows_per_read" "rows" no_ritree
     else metric "ritree.rows_per_read" "rows" (mean xs) ~note:(samples_note xs));
    (if Array.length ritree_ops = 0 then na "btree.entries_per_row" "ratio" no_ritree
     else
       metric "btree.entries_per_row" "ratio"
         (ratio (fi (sum_ints (fun o -> o.entries))) (fi (sum_ints (fun o -> o.rows))))
         ~note:"index entries scanned per row returned");
    metric "btree.height" "levels" (fi btree_height);
    (let h = c.d 0 1 "rikit_pool_hits_total" and mi = c.d 0 1 "rikit_pool_misses_total" in
     metric "pool.hit_ratio" "ratio" (ratio h (h +. mi))
       ~note:(Printf.sprintf "%.0f hits, %.0f misses, first open block" h mi));
    metric "pool.evictions_per_op" "count" (ratio (c.d 0 1 "rikit_pool_evictions_total") all_n01)
      ~note:"first open block";
    (let r = c.d 0 1 "rikit_device_reads_total" in
     metric "device.reads_per_op" "blocks" (ratio r read_n01)
       ~note:(Printf.sprintf "%.0f reads / %.0f read ops, first open block" r read_n01));
    written "device.writes_per_commit" "blocks"
      (ratio (c.d 0 2 "rikit_device_writes_total") commits02) ~note:"whole run";
    written "journal.forces_per_commit" "count"
      (ratio (c.f 0 2 "rikit_journal_forces_total") commits02) ~note:"whole run";
    written "journal.bytes_per_commit" "bytes"
      (ratio (c.f 0 2 "rikit_journal_bytes") commits02) ~note:"whole run";
    p50 "journal.force_p50_us" (pick commits (fun _ o -> o.force_us)) no_writes;
    p50 "txn.commit_p50_us" (pick commits (fun _ o -> o.txn_us)) no_writes;
    written "txn.conflict_ratio" "ratio"
      (ratio (c.f 0 2 "rikit_txn_conflicts_total") commits02) ~note:"whole run";
    (if replica = [] then na "replica.lag_bytes_p99" "bytes" "no replica on this workload"
     else
       p99 "replica.lag_bytes_p99" "bytes" (Sample.to_array lag)
         ~what:"sampled every 10 ms beside the paced writes");
    metric "trace.overhead_ratio" "ratio" (ratio untraced_thr traced_thr)
      ~note:(Printf.sprintf "untraced %.0f / traced %.0f ops/s closed loop"
               untraced_thr traced_thr);
    metric "unattributed_us" "us" unattributed
      ~note:"client mean RTT minus the layers' self times" ]
  @ class_metrics spec m c

let usage () =
  prerr_endline
    "usage: perfbench --workload read_disk|read_hot|write_mixed|routed --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let wname = get "workload" and seed = int "seed" in
  let n, make =
    match List.find_opt (fun (k, _, _) -> k = wname) Wl.all with
    | Some (_, n, f) -> (n, f)
    | None -> usage ()
  in
  let data = Workload.Distribution.generate ~seed Workload.Distribution.D1 ~n ~d:Wl.d in
  let w = Wl.world data in
  let spec = make ~seed w in
  (match List.assoc_opt "serve" kv with
  | Some role ->
      Procs.place_server (int "cpu");
      let peers =
        List.filter_map int_of_string_opt (String.split_on_char ',' (get "peers"))
      in
      (try spec.serve role peers
       with e ->
         Printf.eprintf "perfbench: server %s failed: %s\n%!" role (Printexc.to_string e);
         exit 2);
      exit 0
  | None -> ());
  let seconds = fi (int "seconds") and trace = int "trace" = 1 in
  if seconds < 1. then usage ();
  Procs.server_args := [ "--workload"; wname; "--seed"; string_of_int seed ];
  let nproc = Domain.recommended_domain_count () in
  Procs.place_generator ();
  let fail msg =
    Printf.eprintf "perfbench: %s\n%!" msg;
    Procs.stop_all ();
    exit 1
  in
  let run, m = try measure ~seed ~seconds spec with Failure msg -> fail msg in
  let late = late m in
  let late_p99 = percentile late 0.99 in
  let backend = Reactor.Backend.kind_to_string (Reactor.Backend.default ()) in
  Printf.printf "workload %s, seed %d: %s\n" spec.name seed spec.why;
  List.iter (fun (k, v) -> Printf.printf "  %-12s %s\n" k v) spec.record;
  Printf.printf "  %-12s nproc=%d ocaml=%s reactor=%s loopback=127.0.0.1 %s\n"
    "environment" nproc Sys.ocaml_version backend
    (if !Procs.server_cpu >= 0 then
       Printf.sprintf "generator on cpu %d, servers on cpu %d" (Procs.nth_cpu 0) !Procs.server_cpu
     else "no cpu placement");
  Printf.printf "  %-12s late p99 %.3f ms over %d items (limit %.0f ms)\n"
    "generator" late_p99 (Array.length late) late_limit_ms;
  (match List.find_map (fun (r : Gen.result) -> r.first_error) (phases m) with
  | Some e -> Printf.printf "  first failure: %s\n" e
  | None -> ());
  if late_p99 > late_limit_ms then begin
    print_endline "INVALID: the generator fell behind its own schedule";
    Procs.stop_all ();
    exit 3
  end;
  let c = counts run m in
  let metrics =
    if trace then (try traced ~seed spec run m c with Failure msg -> fail msg)
    else begin
      stop_run run;
      let e2e = end_to_end spec m in
      print_lines (class_metrics spec m c);
      e2e
    end
  in
  Procs.stop_all ();
  print_lines metrics;
  print_json ~correct:(wrong m = 0) ~attempted:(attempted m) ~failed:(failed m) metrics;
  if wrong m > 0 then exit 1