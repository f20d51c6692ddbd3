(* The four workloads: their servers, request streams and answer
   checks. Every input comes from the seed; the servers receive only
   these generated inputs. *)

module P = Server.Protocol
module Ivl = Interval.Ivl
module Prng = Workload.Prng
open Util

let n_rows = 100_000
let n_write = 20_000
let d = 2000
let block_bytes = 2048
let domain_max = Workload.Distribution.domain_max

(* Longest row a writer inserts. *)
let max_written_len = 2 * d

(* Rows by (lower, id), so that the rows a query may meet are a range. *)
module Live = Map.Make (struct
  type t = int * int

  let compare = compare
end)

(* ---- answer checks against the oracle of the preloaded rows ---- *)

type world = {
  data : Ivl.t array;
  oracle : Workload.Oracle.t Lazy.t;
  by_lower : (int, int) Hashtbl.t Lazy.t;  (** lower -> ids (Hashtbl.find_all) *)
  mutable node_of : int array;  (** id -> RI-tree fork node, from the server *)
  by_node : (int, int array) Hashtbl.t;  (** node -> sorted lowers *)
  (* rows written during the run (write_mixed only) *)
  writer : (int, wrow) Hashtbl.t;
  mutable live : (int * wrow) Live.t;
      (** inserts sent and no delete sent, by (lower, id) *)
}

and wrow = {
  w_ivl : Ivl.t;
  mutable ins_sent : float;
  mutable ins_acked : float;
  mutable del_sent : float;
  mutable del_acked : float;
}

(* The answer checks' indexes are built on first use, so a server
   process, which only needs [data], never builds them. *)
let world data =
  let by_lower =
    lazy
      (let h = Hashtbl.create (Array.length data) in
       Array.iteri (fun id i -> Hashtbl.add h (Ivl.lower i) id) data;
       h)
  in
  { data; oracle = lazy (Workload.Oracle.build data); by_lower; node_of = [||];
    by_node = Hashtbl.create 1024; writer = Hashtbl.create 4096;
    live = Live.empty }

let wrong fmt = Printf.ksprintf (fun s -> Gen.Wrong s) fmt

let classify resp k =
  match resp with
  | P.Rows { rows; _ } -> k rows
  | r -> (
      match Gen.refusal r with
      | Some m -> Gen.Refused m
      | None -> Gen.Wrong "expected rows")

let distinct ids =
  let a = Array.of_list ids in
  Array.sort compare a;
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i) = a.(i - 1) then ok := false
  done;
  !ok

(* Rows (lower, upper, id) of an intersection: the preloaded part must
   equal the oracle's answer exactly; written rows go to [extra]. *)
let check_intersect w q ?(extra = fun ~sent:_ ~recv:_ _ -> Gen.Good) () ~sent
    ~recv resp =
  classify resp (fun rows ->
      let n = Array.length w.data in
      let pre = ref [] and bad = ref None and written = ref [] in
      List.iter
        (fun r ->
          let id = r.(2) in
          if id >= 0 && id < n then begin
            let i = w.data.(id) in
            if Ivl.lower i <> r.(0) || Ivl.upper i <> r.(1)
               || not (Ivl.intersects i q)
            then bad := Some id
            else pre := id :: !pre
          end
          else written := r :: !written)
        rows;
      let want = Workload.Oracle.count_intersecting (Lazy.force w.oracle) q in
      match !bad with
      | Some id -> wrong "row %d does not match [%d,%d]" id (Ivl.lower q) (Ivl.upper q)
      | None ->
          if List.length !pre <> want || not (distinct !pre) then
            wrong "intersect [%d,%d]: %d preloaded rows, oracle %d"
              (Ivl.lower q) (Ivl.upper q) (List.length !pre) want
          else extra ~sent ~recv !written)

(* Writer rows in an intersection answer on write_mixed: every row must
   have been committed no later than the answer arrived and not deleted
   by a commit acknowledged before the read was sent; every row acked
   before the read was sent and not deleted before its answer must be
   there. *)
let check_written w q ~sent ~recv rows =
  let seen = Hashtbl.create 16 in
  let bad =
    List.find_opt
      (fun r ->
        let id = r.(2) in
        match Hashtbl.find_opt w.writer id with
        | None -> true
        | Some x ->
            Hashtbl.mem seen id
            || (Hashtbl.replace seen id ();
                Ivl.lower x.w_ivl <> r.(0) || Ivl.upper x.w_ivl <> r.(1)
                || (not (Ivl.intersects x.w_ivl q))
                || x.ins_sent > recv || x.del_acked < sent))
      rows
  in
  match bad with
  | Some r -> wrong "written row %d not allowed here" r.(2)
  | None ->
      let missing =
        Live.to_seq_from (Ivl.lower q - max_written_len, min_int) w.live
        |> Seq.take_while (fun ((lower, _), _) -> lower <= Ivl.upper q)
        |> Seq.find_map (fun (_, (id, x)) ->
               if x.ins_acked < sent && x.del_sent > recv
                  && Ivl.intersects x.w_ivl q && not (Hashtbl.mem seen id)
               then Some id
               else None)
      in
      (match missing with
      | Some id -> wrong "acked row %d missing" id
      | None -> Gen.Good)

(* The prepared Fig. 9 lower-index branch: ids at backbone node [nd]
   with lower <= qup. *)
let node_stmt = "SELECT id FROM intervals WHERE node = :node AND lower <= :qup"

let check_node w nd qup ~sent:_ ~recv:_ resp =
  classify resp (fun rows ->
      let n = Array.length w.data in
      let ids = List.map (fun r -> r.(0)) rows in
      let lowers = Option.value ~default:[||] (Hashtbl.find_opt w.by_node nd) in
      (* count of sorted lowers <= qup *)
      let rec bs lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if lowers.(mid) <= qup then bs (mid + 1) hi else bs lo mid
      in
      let want = bs 0 (Array.length lowers) in
      if List.exists
           (fun id ->
             id < 0 || id >= n || w.node_of.(id) <> nd
             || Ivl.lower w.data.(id) > qup)
           ids
      then wrong "node %d: foreign row" nd
      else if List.length ids <> want || not (distinct ids) then
        wrong "node %d lower<=%d: %d rows, oracle %d" nd qup (List.length ids) want
      else Gen.Good)

let check_starts w q ~sent:_ ~recv:_ resp =
  classify resp (fun rows ->
      let cands =
        List.filter
          (fun id -> Interval.Allen.holds Interval.Allen.Starts w.data.(id) q)
          (Hashtbl.find_all (Lazy.force w.by_lower) (Ivl.lower q))
      in
      let n = Array.length w.data in
      let ids = List.map (fun r -> r.(2)) rows in
      if List.exists
           (fun id ->
             id < 0 || id >= n
             || not (Interval.Allen.holds Interval.Allen.Starts w.data.(id) q))
           ids
      then wrong "starts: foreign row"
      else if List.length ids <> List.length cands || not (distinct ids) then
        wrong "starts: %d rows, oracle %d" (List.length ids) (List.length cands)
      else Gen.Good)

let check_pong ~sent:_ ~recv:_ = function
  | P.Ack "pong" -> Gen.Good
  | r -> (
      match Gen.refusal r with Some m -> Gen.Refused m | None -> Gen.Wrong "ping")

(* Node column of the preloaded rows, read once from the server outside
   the timed phases; the prepared node-branch answers are checked
   against it. *)
let load_nodes w c =
  match Gen.rpc c (P.Sql "SELECT id, node FROM intervals") with
  | P.Rows { rows; _ } ->
      let n = Array.length w.data in
      let node_of = Array.make n min_int in
      List.iter (fun r -> if r.(0) < n then node_of.(r.(0)) <- r.(1)) rows;
      w.node_of <- node_of;
      Hashtbl.reset w.by_node;
      let acc = Hashtbl.create 1024 in
      Array.iteri
        (fun id nd -> Hashtbl.replace acc nd (Ivl.lower w.data.(id) :: (try Hashtbl.find acc nd with Not_found -> [])))
        node_of;
      Hashtbl.iter
        (fun nd l ->
          let a = Array.of_list l in
          Array.sort compare a;
          Hashtbl.replace w.by_node nd a)
        acc
  | _ -> failwith "node column fetch failed"

(* ---- request makers ---- *)

let intersect_op w ?extra q =
  { Gen.req = P.Intersect { lower = Ivl.lower q; upper = Ivl.upper q };
    check = check_intersect w q ?extra () }

let read it = Gen.item Gen.Read [| it |]

(* The query lengths that reach the paper's lowest and highest
   selectivities, 0.1 % and 0.6 %. *)
let sel_lengths data seed =
  lazy
    (Array.map
       (fun sel ->
         let qs = Workload.Query_gen.queries ~seed ~data ~count:200 sel in
         Array.fold_left (fun m q -> max m (Ivl.upper q - Ivl.lower q)) 0 qs)
       [| 0.001; 0.006 |])

(* A length uniform between the two: selectivities spread over the
   whole range rather than on six steps, so that a latency median does
   not sit on the edge between two steps and jump between runs. *)
let pick_length rng lens =
  let lens = Lazy.force lens in
  lens.(0) + Prng.int rng (lens.(1) - lens.(0) + 1)

let paper_query rng lens =
  let len = pick_length rng lens in
  let s = Prng.int rng (domain_max - len + 1) in
  Ivl.make s (s + len)

(* A node-branch lookup near a stored row: the prepared statement, or
   the same query as ad-hoc text (which goes through the plan cache). *)
let node_lookup ?(adhoc = false) w rng =
  let n = Array.length w.data in
  let j = Prng.int rng n in
  let nd = w.node_of.(j) in
  let qup = Ivl.lower w.data.(j) + Prng.int rng (2 * d) in
  let req =
    if adhoc then
      P.Sql (Printf.sprintf "SELECT id FROM intervals WHERE node = %d AND lower <= %d" nd qup)
    else P.Execute { name = "fig9"; params = [ nd; qup ] }
  in
  { Gen.req; check = check_node w nd qup }

let node_exec w rng = node_lookup w rng

let prepare c =
  match Gen.rpc c (P.Prepare { name = "fig9"; sql = node_stmt }) with
  | P.Ack _ -> ()
  | _ -> failwith "prepare failed"

let ping c =
  match Gen.rpc c P.Ping with
  | P.Ack _ -> ()
  | _ -> failwith "ping failed"

(* Run (connection, item) pairs one op at a time (warm-up, read-back),
   with the items' hooks; every answer must be right. *)
let run_sync conns items =
  List.iter
    (fun (ci, (it : Gen.item)) ->
      let last = Array.length it.ops - 1 and sent = ref 0. in
      Array.iteri
        (fun j (op : Gen.op) ->
          let t = now () in
          if j = last then begin
            sent := t;
            it.on_sent t
          end;
          match op.check ~sent:t ~recv:t (Gen.rpc conns.(ci) op.req) with
          | Gen.Good -> ()
          | Gen.Refused m | Gen.Wrong m -> failwith ("warm-up: " ^ m))
        it.ops;
      it.on_done ~sent:!sent ~recv:(now ()) ~ok:true)
    items

(* ---- workload specs ---- *)

type run = {
  procs : Procs.t list;  (** every server of the workload *)
  front : Procs.t;  (** where the load goes *)
  conns : Gen.conn array;  (** load connections to [front] *)
}

type db = {
  durable : bool;
  cache_blocks : int;
  hot_tier_mb : int;
  rows : (int * Ivl.t) array;  (** preloaded (id, interval) *)
}

type spec = {
  name : string;
  why : string;
  record : (string * string) list;  (** settings printed with the result *)
  open_rate : float;  (** items per second, all connections *)
  window : int array;  (** closed-loop items in flight per connection *)
  sync_window : int array;
      (** in flight per connection while latency is measured: 1 on the
          timed connections, more on a connection that only keeps the
          server busy, 0 on one that sends [paced] items *)
  paced : Prng.t -> float -> (float * int * (unit -> Gen.item)) array;
      (** items sent on their own schedule beside the waiting clients,
          over the given seconds (write_mixed's transactions) *)
  dbs : db array;  (** the database servers (one per shard when routed) *)
  prepared : bool;  (** sessions prepare the node-branch statement *)
  start : unit -> run;  (** start the servers, connect and warm them up *)
  serve : string -> int list -> unit;
      (** server mode: run the server of a role, given its peers' ports *)
  warmup : unit -> (int * Gen.item) list;  (** same list on every call *)
  schedule : Prng.t -> float -> (float * int * (unit -> Gen.item)) array;
      (** open-loop (offset, connection, item maker) over the given
          seconds; items are made when due *)
  next : Prng.t -> int -> Gen.item;  (** closed-loop stream *)
  replay : Prng.t -> float -> (int * Gen.item) list;
      (** the traced replay's request stream *)
  targets : P.request -> int list;  (** databases a request reaches *)
  finish : run -> unit;  (** end-of-run checks; raise on failure *)
}

let shared_of db =
  let sh =
    Server.Session.shared ~durable:db.durable ~cache_blocks:db.cache_blocks
      ~hot_tier_mb:db.hot_tier_mb ()
  in
  if Array.length db.rows > 0 then Server.Session.preload_ids sh db.rows;
  sh

let db_server ?group_commit db =
  Procs.serve_dispatcher ?group_commit (shared_of db) Procs.report

let all_rows data = Array.mapi (fun id i -> (id, i)) data

(* [rate * seconds] arrivals at uniformly random times in [seconds] on
   connection [conn]: a Poisson process held to its expected count, so
   that runs offer the same work while the gaps stay random. *)
let poisson ~rate ~seconds ~conn make rng =
  let times = Array.init (int_of_float (rate *. seconds)) (fun _ -> Prng.float rng *. seconds) in
  Array.sort compare times;
  Array.map (fun t -> (t, conn, fun () -> make rng)) times

let merge a b =
  let m = Array.append a b in
  Array.stable_sort (fun (x, _, _) (y, _, _) -> compare x y) m;
  m

(* The open-loop stream itself, cut short: what the traced run replays. *)
let replay_of_schedule schedule rng seconds =
  Array.to_list (Array.map (fun (_, ci, mk) -> (ci, mk ())) (schedule rng seconds))

let bad_role role = failwith ("unknown server role " ^ role)

let no_paced _ _ = [||]

(* One dispatcher over one database. *)
let serve_single db role _peers =
  if role = "db" then db_server db else bad_role role

(* Start the dispatcher, connect, prepare and warm up. *)
let start_single ~conns:k ~prepared ~warmup w () =
  let p = Procs.spawn "rikitd" "db" [] in
  let conns = Array.init k (fun _ -> Gen.connect p.Procs.port) in
  if prepared then begin
    load_nodes w conns.(0);
    Array.iter prepare conns
  end;
  run_sync conns (warmup ());
  ping conns.(0);
  { procs = [ p ]; front = p; conns }

(* read_disk: the paper's Fig. 13 setting. *)
let read_disk ~seed w =
  let lens = sel_lengths w.data seed in
  let mix rng =
    if Prng.int rng 10 = 0 then read (node_exec w rng)
    else read (intersect_op w (paper_query rng lens))
  in
  let rate = 250. in
  let db = { durable = false; cache_blocks = 200; hot_tier_mb = 0; rows = all_rows w.data } in
  let warmup () =
    let rng = Prng.create ~seed:(seed + 1) in
    List.init 300 (fun _ -> (0, mix rng))
  in
  let schedule rng seconds = poisson ~rate ~seconds ~conn:0 mix rng in
  { name = "read_disk";
    why = "RI-tree, B+-tree and storage do the work: D1(100k,2k) far larger than a 200-block pool, one connection so I/O counts repeat exactly";
    record =
      [ ("dataset", "D1 n=100000 d=2000, about 6260 pages");
        ("pool_blocks", "200 (2 KB blocks)"); ("hot_tier_mb", "0");
        ("flush", "non-durable");
        ("mix", "90% Intersect at 0.1-0.6% selectivity, 10% prepared Fig. 9 node-branch Execute");
        ("open_loop", Printf.sprintf "%.0f/s Poisson, 1 connection" rate);
        ("latency", "waiting client, one request in flight");
        ("closed_loop", "window 4, 1 connection") ];
    open_rate = rate; window = [| 4 |]; sync_window = [| 1 |]; paced = no_paced;
    dbs = [| db |]; prepared = true;
    start = start_single ~conns:1 ~prepared:true ~warmup w;
    serve = serve_single db;
    warmup; schedule;
    next = (fun rng _ -> mix rng);
    replay = replay_of_schedule schedule;
    targets = (fun _ -> [ 0 ]);
    finish = ignore }

(* read_hot: same dataset, resident in the hot tier. *)
let read_hot ~seed w =
  let n = Array.length w.data in
  let mix rng =
    match Prng.int rng 20 with
    | 0 | 1 -> read { Gen.req = P.Ping; check = check_pong }
    | 2 | 3 -> read (node_exec w rng)
    | 4 -> read (node_lookup ~adhoc:true w rng)
    | 5 | 6 | 7 ->
        let l = Ivl.lower w.data.(Prng.int rng n) in
        let q = Ivl.make l (l + Prng.int rng (2 * d) + 1) in
        read
          { Gen.req =
              P.Allen { relation = Interval.Allen.Starts; lower = Ivl.lower q;
                        upper = Ivl.upper q };
            check = check_starts w q }
    | 8 | 9 | 10 | 11 ->
        let s = Prng.int rng (domain_max - 64) in
        read (intersect_op w (Ivl.make s (s + 64)))
    | _ -> read (intersect_op w (Ivl.point (Prng.int rng (domain_max + 1))))
  in
  let rate = 1500. in
  let db = { durable = false; cache_blocks = 200; hot_tier_mb = 64; rows = all_rows w.data } in
  let warmup () =
    let rng = Prng.create ~seed:(seed + 2) in
    List.init 600 (fun i -> (i land 1, mix rng))
  in
  let schedule rng seconds =
    let half = rate /. 2. in
    merge
      (poisson ~rate:half ~seconds ~conn:0 mix (Prng.split rng))
      (poisson ~rate:half ~seconds ~conn:1 mix rng)
  in
  { name = "read_hot";
    why = "control for storage changes: the data is resident, so Reactor, Dispatcher, Protocol, Session, plan cache and Memtier fixed costs dominate";
    record =
      [ ("dataset", "D1 n=100000 d=2000, about 6260 pages");
        ("pool_blocks", "200 (2 KB blocks), as read_disk"); ("hot_tier_mb", "64 (holds the tree, about 14 MB)");
        ("flush", "non-durable");
        ("mix", "40% stabbing Intersect, 20% 64-wide Intersect, 15% Allen Starts, 10% prepared node-branch Execute, 5% the same as ad-hoc SQL, 10% Ping");
        ("open_loop", Printf.sprintf "%.0f/s Poisson over 2 pipelined connections" rate);
        ("closed_loop", "window 32 per connection, 2 connections");
        ("latency", "waiting client on conn 1 while conn 2 keeps 2 requests in flight") ];
    open_rate = rate; window = [| 32; 32 |]; sync_window = [| 1; 2 |];
    paced = no_paced; dbs = [| db |]; prepared = true;
    start = start_single ~conns:2 ~prepared:true ~warmup w;
    serve = serve_single db;
    warmup; schedule;
    next = (fun rng _ -> mix rng);
    replay = replay_of_schedule schedule;
    targets = (fun _ -> [ 0 ]);
    finish = ignore }

let repl_lsn c =
  match Gen.rpc c P.Repl_status with
  | P.Repl_state { durable_lsn; applied_lsn; _ } -> (durable_lsn, applied_lsn)
  | _ -> failwith "replication status"

(* Wait until the replica behind [rc] applied the primary's durable log. *)
let catch_up ~primary rc =
  let durable, _ = repl_lsn primary in
  let deadline = now () +. 60. in
  while snd (repl_lsn rc) < durable do
    if now () > deadline then failwith "replica did not catch up";
    Unix.sleepf 0.002
  done

(* write_mixed: a durable primary with group commit and the hot tier,
   plus one semi-synchronous replica. *)
let write_mixed ~seed w =
  let n = Array.length w.data in
  let lens = sel_lengths w.data seed in
  let per_txn = 4 in
  (* A writer: transactions of [per_txn] inserts at the advancing end of
     the domain (Poisson arrivals of their lower bounds), each deleting
     the rows of the transaction [keep] before it. [reset] forgets every
     written row, for a fresh server. *)
  let writer ~id_base ~cursor:start ~keep =
    let cursor = ref start and txns = ref 0 in
    let history = Queue.create () in
    let reset () =
      cursor := start;
      txns := 0;
      Queue.clear history;
      Hashtbl.reset w.writer;
      w.live <- Live.empty
    in
    cursor, reset,
    fun rng ->
      let j = !txns in
      incr txns;
      let ins =
        List.init per_txn (fun i ->
            cursor :=
              !cursor + 1 + int_of_float (-30. *. Float.log (1. -. Prng.float rng));
            let ivl = Ivl.make !cursor (!cursor + Prng.int rng (max_written_len + 1)) in
            let r = { w_ivl = ivl; ins_sent = infinity; ins_acked = infinity;
                      del_sent = infinity; del_acked = infinity } in
            let id = id_base + (per_txn * j) + i in
            Hashtbl.replace w.writer id r;
            (id, r))
      in
      let dels = if Queue.length history >= keep then Queue.pop history else [] in
      Queue.push ins history;
      let bounds r = (Ivl.lower r.w_ivl, Ivl.upper r.w_ivl) in
      let key (id, r) = (Ivl.lower r.w_ivl, id) in
      let ops =
        (Gen.ack P.Begin
         :: List.map
              (fun (id, r) ->
                let lower, upper = bounds r in
                Gen.ack (P.Insert { lower; upper; id = Some id }))
              ins)
        @ List.map
            (fun (id, r) ->
              let lower, upper = bounds r in
              Gen.ack (P.Delete { lower; upper; id }))
            dels
        @ [ Gen.ack P.Commit ]
      in
      Gen.item Gen.Write (Array.of_list ops)
        ~on_sent:(fun t ->
          List.iter
            (fun (id, r) ->
              r.ins_sent <- t;
              w.live <- Live.add (key (id, r)) (id, r) w.live)
            ins;
          List.iter
            (fun (id, r) ->
              r.del_sent <- t;
              w.live <- Live.remove (key (id, r)) w.live)
            dels)
        ~on_done:(fun ~sent:_ ~recv ~ok ->
          if ok then begin
            List.iter (fun (_, r) -> r.ins_acked <- recv) ins;
            List.iter (fun (_, r) -> r.del_acked <- recv) dels
          end)
  in
  let main_cursor = domain_max + 1 in
  let keep = 200 in
  let cursor, reset_writer, txn = writer ~id_base:n ~cursor:main_cursor ~keep in
  let reader rng =
    let len = pick_length rng lens in
    (* half over everything so far, half over the recent write region *)
    let lo = if Prng.int rng 2 = 0 then 0 else max 0 (!cursor - 30_000) in
    let s = lo + Prng.int rng (max 1 (!cursor - len - lo)) in
    let q = Ivl.make s (s + len) in
    read (intersect_op w ~extra:(check_written w q) q)
  in
  let txn_rate = 25. and read_rate = 250. in
  let db = { durable = true; cache_blocks = 512; hot_tier_mb = 64; rows = all_rows w.data } in
  let replica = ref None in
  let warmup () =
    let rng = Prng.create ~seed:(seed + 3) in
    List.init 100 (fun _ -> (1, read (intersect_op w (paper_query rng lens))))
  in
  let schedule_with txn rng seconds =
    let t = poisson ~rate:txn_rate ~seconds ~conn:0 txn (Prng.split rng) in
    merge t (poisson ~rate:read_rate ~seconds ~conn:1 reader rng)
  in
  { name = "write_mixed";
    why = "writes beside reads: Txn, Journal and Replica on top of the storage and RI-tree layers; a read gain that costs writes shows here";
    record =
      [ ("dataset", "D1 n=20000 d=2000 (about 1250 pages), then 4 inserts per txn at the advancing domain end");
        ("set_up", "the writer's first 200 txns, so that the 800 live written rows stay level from the first timed request on");
        ("pool_blocks", "512 per server (2 KB blocks)"); ("hot_tier_mb", "64 on the primary");
        ("flush", "durable journal, group-commit window 2 ms, one semi-sync replica");
        ("mix", "conn 1: BEGIN, 4 inserts, deletes of its own rows 200 txns old, COMMIT; conn 2: Intersect at 0.1-0.6%, half over the whole domain, half over the recent write region");
        ("open_loop", Printf.sprintf "txns Poisson %.0f/s on conn 1, reads Poisson %.0f/s on conn 2" txn_rate read_rate);
        ("latency",
         Printf.sprintf "waiting reader on conn 2 while conn 1 sends txns on their own Poisson %.0f/s schedule" txn_rate);
        ("closed_loop",
         "reads only, window 64 on conn 2 (with transactions beside them every COMMIT invalidates the hot tier and the figure swung 4x between runs)") ];
    open_rate = txn_rate +. read_rate; window = [| 0; 64 |];
    sync_window = [| 0; 1 |];
    paced = (fun rng seconds -> poisson ~rate:txn_rate ~seconds ~conn:0 txn rng);
    dbs = [| db |];
    prepared = false;
    start =
      (fun () ->
        let p = Procs.spawn "primary" "primary" [] in
        let r = Procs.spawn "replica" "replica" [ p.Procs.port ] in
        replica := Some r;
        let conns = Array.init 2 (fun _ -> Gen.connect p.Procs.port) in
        let rc = Gen.connect r.Procs.port in
        Fun.protect ~finally:(fun () -> Gen.close rc) (fun () ->
            catch_up ~primary:conns.(0) rc;
            (* the writer's first [keep] transactions, so that from the
               first timed request on every transaction deletes as many
               rows as it inserts and the live written rows stay at
               [per_txn * keep] *)
            reset_writer ();
            let rng = Prng.create ~seed:(seed + 5) in
            run_sync conns (List.init keep (fun _ -> (0, txn rng)));
            catch_up ~primary:conns.(0) rc);
        run_sync conns (warmup ());
        ping conns.(0);
        { procs = [ p; r ]; front = p; conns });
    serve =
      (fun role peers ->
        match (role, peers) with
        | "primary", [] -> db_server ~group_commit:0.002 db
        | "replica", [ primary ] ->
            let sh = Server.Session.shared ~durable:true ~cache_blocks:512 () in
            Procs.serve_dispatcher ~replica_of:("127.0.0.1", primary) sh Procs.report
        | _ -> bad_role role);
    warmup;
    schedule = schedule_with txn;
    next = (fun rng ci -> if ci = 0 then txn rng else reader rng);
    replay =
      (fun rng seconds ->
        (* a fresh writer with its own ids and region, deleting only
           rows it wrote itself, so an in-process twin can replay it *)
        let _, _, txn =
          writer ~id_base:(1 lsl 40) ~cursor:(!cursor + 1_000_000) ~keep:8
        in
        replay_of_schedule (schedule_with txn) rng seconds);
    targets = (fun _ -> [ 0 ]);
    finish =
      (fun run ->
        (* every acked insert, and no acked delete, on both servers *)
        let expect = Hashtbl.create 1024 in
        Hashtbl.iter
          (fun id x ->
            if x.ins_acked < infinity && x.del_acked = infinity then
              Hashtbl.replace expect id ())
          w.writer;
        let hi =
          Hashtbl.fold (fun _ x m -> max m (Ivl.upper x.w_ivl)) w.writer domain_max
        in
        let q = Ivl.make 0 hi in
        let read_back name c =
          let t = now () in
          let extra ~sent:_ ~recv:_ rows =
            let got = List.map (fun r -> r.(2)) rows in
            if List.length got = Hashtbl.length expect
               && distinct got
               && List.for_all (Hashtbl.mem expect) got
            then Gen.Good
            else
              wrong "%s: %d written rows, %d acked" name (List.length got)
                (Hashtbl.length expect)
          in
          match
            check_intersect w q ~extra () ~sent:t ~recv:t
              (Gen.rpc c (P.Intersect { lower = 0; upper = hi }))
          with
          | Gen.Good -> ()
          | Gen.Refused m | Gen.Wrong m -> failwith ("read-back " ^ m)
        in
        read_back "primary" run.conns.(0);
        match !replica with
        | None -> ()
        | Some r ->
            let rc = Gen.connect r.Procs.port in
            Fun.protect ~finally:(fun () -> Gen.close rc) (fun () ->
                catch_up ~primary:run.conns.(0) rc;
                read_back "replica" rc)) }

(* routed: a Router over two shard processes cut at a backbone point. *)
let routed ~seed w =
  let lens = sel_lengths w.data seed in
  let cut =
    match Server.Router.Map.backbone_cuts ~domain_max ~shards:2 with
    | [ c ] -> c
    | _ -> failwith "backbone cuts"
  in
  let slice (lo, hi) =
    let out = ref [] in
    Array.iteri
      (fun id ivl ->
        if Ivl.lower ivl <= hi && Ivl.upper ivl >= lo then out := (id, ivl) :: !out)
      w.data;
    Array.of_list (List.rev !out)
  in
  let shard range =
    { durable = false; cache_blocks = 200; hot_tier_mb = 0; rows = slice range }
  in
  let dbs = [| shard (min_int, cut - 1); shard (cut, max_int) |] in
  let mix rng =
    if Prng.int rng 4 = 0 then begin
      (* spans the cut: fan-out 2 *)
      let len = pick_length rng lens in
      let s = cut - 1 - Prng.int rng (len + 1) in
      read (intersect_op w (Ivl.make s (s + len)))
    end
    else read (intersect_op w (paper_query rng lens))
  in
  let rate = 250. in
  let warmup () =
    let rng = Prng.create ~seed:(seed + 4) in
    List.init 300 (fun _ -> (0, mix rng))
  in
  let schedule rng seconds = poisson ~rate ~seconds ~conn:0 mix rng in
  { name = "routed";
    why = "the Router's scatter/merge and second hop: the read_disk mix through a router over 2 shard processes, a quarter of queries spanning the cut";
    record =
      [ ("dataset", "D1 n=100000 d=2000, split at a backbone cut");
        ("pool_blocks", "200 per shard (2 KB blocks)"); ("hot_tier_mb", "0");
        ("flush", "non-durable");
        ("mix", "Intersect at 0.1-0.6% selectivity, 25% forced across the cut");
        ("open_loop", Printf.sprintf "%.0f/s Poisson, 1 connection to the router" rate);
        ("latency", "waiting client, one request in flight");
        ("closed_loop", "window 4, 1 connection") ];
    open_rate = rate; window = [| 4 |]; sync_window = [| 1 |]; paced = no_paced;
    dbs; prepared = false;
    start =
      (fun () ->
        let shards =
          Procs.spawn_many
            (List.init (Array.length dbs) (fun i ->
                 let name = Printf.sprintf "shard%d" i in
                 (name, name, [])))
        in
        let r = Procs.spawn "router" "router" (List.map (fun p -> p.Procs.port) shards) in
        let conns = [| Gen.connect r.Procs.port |] in
        run_sync conns (warmup ());
        ping conns.(0);
        { procs = r :: shards; front = r; conns });
    serve =
      (fun role peers ->
        match (role, peers) with
        | "shard0", [] -> db_server dbs.(0)
        | "shard1", [] -> db_server dbs.(1)
        | "router", [ _; _ ] ->
            let endpoints = List.map (fun port -> [ ("127.0.0.1", port) ]) peers in
            Procs.serve_router ~map:(Server.Router.Map.create ~cuts:[ cut ] ~endpoints)
              Procs.report
        | _ -> bad_role role);
    warmup; schedule;
    next = (fun rng _ -> mix rng);
    replay = replay_of_schedule schedule;
    targets =
      (function
        | P.Intersect { lower; upper } ->
            List.filter
              (fun i -> if i = 0 then lower < cut else upper >= cut)
              [ 0; 1 ]
        | _ -> [ 0; 1 ]);
    finish = ignore }

(* (name, preloaded rows, spec) *)
let all =
  [ ("read_disk", n_rows, read_disk); ("read_hot", n_rows, read_hot);
    ("write_mixed", n_write, write_mixed); ("routed", n_rows, routed) ]
