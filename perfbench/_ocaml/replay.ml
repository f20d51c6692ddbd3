(* The traced run's inner spans: the replayed request stream executed
   in this process, at successively inner public entry points, on twin
   stacks built like the servers (same rows, pool size, hot tier and
   warm-up). Twin A runs every request through [Session.handle]; twin B
   runs the same request one layer further in — [Engine.execute_prepared]
   or [Engine.exec], [Ri_tree.intersecting] or the hot tier's probe,
   whichever path the session took, and the commit's [stage_commit] /
   [commit_force]. A layer's self time is its span minus the next-inner
   span of the same request. *)

module P = Server.Protocol
module S = Server.Session
module Ivl = Interval.Ivl
open Util

type twin = {
  sh : S.shared;
  sess : S.t array;  (** one per load connection *)
}

(* Build a twin of database [db] and warm it as the server was. *)
let twin (spec : Wl.spec) i =
  let sh = Wl.shared_of spec.dbs.(i) in
  let sess = Array.init (Array.length spec.window) (fun _ -> S.create sh) in
  if spec.prepared then begin
    ignore (S.handle sess.(0) (P.Sql "SELECT id, node FROM intervals"));
    Array.iter
      (fun s -> ignore (S.handle s (P.Prepare { name = "fig9"; sql = Wl.node_stmt })))
      sess
  end;
  List.iter
    (fun (ci, (it : Gen.item)) ->
      Array.iter
        (fun (op : Gen.op) ->
          if List.mem i (spec.targets op.req) then ignore (S.handle sess.(ci) op.req))
        it.ops)
    (spec.warmup ());
  { sh; sess }

(* [f ()], its start and its duration in µs. *)
let span f =
  let t0 = now () in
  let r = f () in
  (r, t0, (now () -. t0) *. 1e6)

let time f =
  let r, _, us = span f in
  (r, us)

type inner = Memtier | Ritree | Exec | Commit | No_inner

(* One replayed op. *)
type op = {
  req : P.request;
  conn : int;
  mutable a_t0 : float;
  mutable a_us : float;  (** Session.handle, slowest target *)
  mutable b_t0 : float;
  mutable b_us : float;  (** next-inner span, 0 when none *)
  mutable inner : inner;
  mutable txn_us : float;  (** stage_commit (commits) *)
  mutable force_us : float;  (** commit_force (commits) *)
  mutable probes : int;
  mutable rows : int;
  mutable entries : int;
}

let flatten items =
  List.concat_map
    (fun (ci, (it : Gen.item)) ->
      Array.to_list
        (Array.map
           (fun (o : Gen.op) ->
             { req = o.req; conn = ci; a_t0 = 0.; a_us = 0.; b_t0 = 0.; b_us = 0.;
               inner = No_inner;
               txn_us = 0.; force_us = 0.; probes = 0; rows = 0; entries = 0 })
           it.ops))
    items

let memtier_probes sh = (Exec.Memtier.stats (S.memtier sh)).Exec.Memtier.s_probes

(* Index entries the two-branch plan scans for [q]: the upper-index
   range per left-node run and the lower-index range per right node. *)
let entries_scanned tree q =
  let nl = Ritree.Ri_tree.node_lists tree q in
  let count bt lo hi = Btree.fold_range bt ~lo ~hi (fun n _ -> n + 1) 0 in
  let up = Relation.Table.Index.tree (Ritree.Ri_tree.upper_index tree) in
  let lw = Relation.Table.Index.tree (Ritree.Ri_tree.lower_index tree) in
  List.fold_left
    (fun acc (mn, mx) ->
      acc + count up (Btree.lo_pad up [ mn; Ivl.lower q ]) (Btree.hi_pad up [ mx ]))
    0 nl.Ritree.Ri_tree.left_nodes
  + List.fold_left
      (fun acc nd ->
        acc + count lw (Btree.lo_pad lw [ nd ]) (Btree.hi_pad lw [ nd; Ivl.upper q ]))
      0 nl.Ritree.Ri_tree.right_nodes

(* Twin A: every op through Session.handle on each database it reaches;
   returns whether the hot tier served each op. *)
let run_a (spec : Wl.spec) twins ops =
  List.map
    (fun o ->
      let before = memtier_probes twins.(0).sh in
      List.iter
        (fun i ->
          let t = twins.(i) in
          let _, t0, us = span (fun () -> S.handle t.sess.(o.conn) o.req) in
          if us >= o.a_us then begin
            o.a_t0 <- t0;
            o.a_us <- us
          end)
        (spec.targets o.req);
      memtier_probes twins.(0).sh > before)
    ops

(* Twin B: the next-inner entry point of each op, timed alone. Twin B
   must fault the same pages as twin A did, so nothing else touches its
   pool here; the RI-tree's logical counts come from [count_ritree]
   afterwards. *)
let run_b (b : twin) ops mem_path =
  let tree () = S.tree b.sh in
  let eng = Sqlfront.Engine.session (S.catalog b.sh) in
  let prepared = lazy (Sqlfront.Engine.prepare eng Wl.node_stmt) in
  let probe op ~lo ~up =
    match Exec.Memtier.acquire (S.memtier b.sh) (tree ()) with
    | Some h -> List.length (h.Exec.Ir.mem_probe op ~lo ~up)
    | None -> 0
  in
  let rows = function
    | Sqlfront.Engine.Rows { rows; _ } -> List.length rows
    | Sqlfront.Engine.Done _ -> 0
  in
  List.iter2
    (fun o mem ->
      match o.req with
      | P.Intersect { lower; upper } ->
          if mem then begin
            let n, t0, us = span (fun () -> probe Exec.Ir.Mem_intersect ~lo:lower ~up:upper) in
            o.inner <- Memtier; o.b_t0 <- t0; o.b_us <- us; o.rows <- n
          end
          else begin
            let r, t0, us =
              span (fun () -> Ritree.Ri_tree.intersecting (tree ()) (Ivl.make lower upper))
            in
            o.inner <- Ritree; o.b_t0 <- t0; o.b_us <- us; o.rows <- List.length r
          end
      | P.Allen { relation; lower; upper } ->
          if mem then begin
            let n, t0, us =
              span (fun () -> probe (Exec.Ir.Mem_relation relation) ~lo:lower ~up:upper)
            in
            o.inner <- Memtier; o.b_t0 <- t0; o.b_us <- us; o.rows <- n
          end
          else begin
            let r, t0, us =
              span (fun () ->
                  Exec.Planner.allen_matches (tree ()) relation (Ivl.make lower upper))
            in
            o.inner <- Exec; o.b_t0 <- t0; o.b_us <- us; o.rows <- List.length r
          end
      | P.Execute { params; _ } ->
          let p = Lazy.force prepared in
          let r, t0, us = span (fun () -> Sqlfront.Engine.execute_prepared eng p params) in
          o.inner <- Exec; o.b_t0 <- t0; o.b_us <- us; o.rows <- rows r
      | P.Sql text ->
          let r, t0, us = span (fun () -> Sqlfront.Engine.exec eng text) in
          o.inner <- Exec; o.b_t0 <- t0; o.b_us <- us; o.rows <- rows r
      | P.Commit ->
          let s = b.sess.(o.conn) in
          let r, t0, txn_us = span (fun () -> S.stage_commit s) in
          (match r with Ok () -> () | Error m -> failwith ("twin commit: " ^ m));
          let _, force_us = time (fun () -> S.commit_force_shared b.sh) in
          o.inner <- Commit; o.b_t0 <- t0; o.txn_us <- txn_us; o.force_us <- force_us;
          o.b_us <- txn_us +. force_us
      | P.Begin | P.Insert _ | P.Delete _ ->
          (* keep B's state in step; no inner layer to time *)
          ignore (S.handle b.sess.(o.conn) o.req)
      | _ -> ())
    ops mem_path

(* Probes and index entries of the ops that took the RI-tree path, on
   twin B's tree as the replay left it. *)
let count_ritree (b : twin) ops =
  let tree = S.tree b.sh in
  List.iter
    (fun o ->
      match (o.inner, o.req) with
      | Ritree, P.Intersect { lower; upper } ->
          let q = Ivl.make lower upper in
          o.probes <- Ritree.Ri_tree.probe_count tree q;
          o.entries <- entries_scanned tree q
      | _ -> ())
    ops

(* Direct RI-tree insert cost on twin B's tree: insert the replay's new
   intervals under fresh ids, timing each insert, then delete them. *)
let ritree_inserts (b : twin) ops =
  let tree = S.tree b.sh in
  let ins =
    List.filter_map
      (fun o ->
        match o.req with
        | P.Insert { lower; upper; _ } -> Some (Ivl.make lower upper)
        | _ -> None)
      ops
  in
  let base = 1 lsl 50 in
  let us =
    List.mapi
      (fun k ivl -> snd (time (fun () -> ignore (Ritree.Ri_tree.insert ~id:(base + k) tree ivl))))
      ins
  in
  List.iteri (fun k ivl -> ignore (Ritree.Ri_tree.delete tree ~id:(base + k) ivl)) ins;
  Array.of_list us

(* PREPARE cost through the session. *)
let prepare_us (a : twin) =
  let s = S.create a.sh in
  let xs =
    Array.init 20 (fun k ->
        snd
          (time (fun () ->
               S.handle s (P.Prepare { name = Printf.sprintf "p%d" k; sql = Wl.node_stmt }))))
  in
  S.close s;
  median xs
