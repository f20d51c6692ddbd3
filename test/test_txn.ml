(* Concurrent-isolation properties for the MVCC layer, checked against
   an in-memory oracle.

   Random programs interleave insert/delete/commit/rollback across
   several in-process server sessions sharing one database. The oracle
   tracks the committed row set plus each session's buffered write set
   and predicts, for every step, (a) the response class — including
   exactly which COMMITs must fail with a first-committer-wins
   [Conflict] — and (b) what every session (and a pure reader) must see.
   One session's ROLLBACK never perturbs anyone else's view; a pinned
   reader's snapshot is stable across concurrent commits. *)

module S = Server.Session
module P = Server.Protocol
module Ri = Ritree.Ri_tree

(* ---- the abstract program ---- *)

type op =
  | Ins of int * int * int (* lower, upper, id *)
  | Del of int (* target id (interval resolved from the id table) *)
  | Commit
  | Rollback

type step = { who : int; op : op }

let n_writers = 3

(* Interval shapes: a small domain with heavy overlap, so deletes and
   intersections actually contend. Ids are assigned globally unique at
   generation time. *)
let gen_program =
  QCheck.Gen.(
    let* len = int_range 5 40 in
    let rec go k next_id acc =
      if k = 0 then return (List.rev acc)
      else
        let* who = int_range 0 (n_writers - 1) in
        let* pick = int_range 0 9 in
        if pick < 4 then
          let* lo = int_range 0 900 in
          let* w = int_range 1 100 in
          go (k - 1) (next_id + 1)
            ({ who; op = Ins (lo, lo + w, next_id) } :: acc)
        else if pick < 7 && next_id > 0 then
          let* target = int_range 0 (next_id - 1) in
          go (k - 1) next_id ({ who; op = Del target } :: acc)
        else if pick < 9 then go (k - 1) next_id ({ who; op = Commit } :: acc)
        else go (k - 1) next_id ({ who; op = Rollback } :: acc)
    in
    go len 0 [])

let op_to_string = function
  | Ins (lo, up, id) -> Printf.sprintf "s.ins [%d,%d] id %d" lo up id
  | Del id -> Printf.sprintf "del id %d" id
  | Commit -> "commit"
  | Rollback -> "rollback"

let program_to_string steps =
  String.concat "; "
    (List.map (fun s -> Printf.sprintf "%d:%s" s.who (op_to_string s.op)) steps)

let arb_program = QCheck.make ~print:program_to_string gen_program

(* ---- the oracle ---- *)

module IMap = Map.Make (Int)
module ISet = Set.Make (Int)

type model = {
  mutable committed : (int * int) IMap.t; (* id -> interval *)
  all_rows : (int, int * int) Hashtbl.t; (* every id ever generated *)
  pend_ins : ISet.t array; (* per-writer buffered inserts *)
  pend_del : ISet.t array; (* per-writer buffered deletes *)
}

let model () =
  {
    committed = IMap.empty;
    all_rows = Hashtbl.create 64;
    pend_ins = Array.make n_writers ISet.empty;
    pend_del = Array.make n_writers ISet.empty;
  }

(* What a writer's own statements see: committed state minus its pending
   deletes, plus its pending inserts (read-your-own-writes). *)
let own_view m who =
  let base =
    IMap.filter (fun id _ -> not (ISet.mem id m.pend_del.(who))) m.committed
  in
  ISet.fold
    (fun id acc -> IMap.add id (Hashtbl.find m.all_rows id) acc)
    m.pend_ins.(who) base

type verdict = V_ack | V_conflict | V_error | V_invalid

(* Advance the oracle and return the expected response class. *)
let predict m { who; op } =
  match op with
  | Ins (lo, up, id) ->
      Hashtbl.replace m.all_rows id (lo, up);
      m.pend_ins.(who) <- ISet.add id m.pend_ins.(who);
      V_ack
  | Del id ->
      if ISet.mem id m.pend_ins.(who) then begin
        (* deleting your own uncommitted insert: drop it from the buffer *)
        m.pend_ins.(who) <- ISet.remove id m.pend_ins.(who);
        V_ack
      end
      else if ISet.mem id m.pend_del.(who) then
        (* already buffered: own snapshot no longer sees the row *)
        V_error
      else if IMap.mem id m.committed then begin
        m.pend_del.(who) <- ISet.add id m.pend_del.(who);
        V_ack
      end
      else V_error
  | Commit ->
      (* first-committer-wins: a buffered delete whose victim is gone
         from the committed state lost the race *)
      if ISet.exists (fun id -> not (IMap.mem id m.committed)) m.pend_del.(who)
      then begin
        m.pend_ins.(who) <- ISet.empty;
        m.pend_del.(who) <- ISet.empty;
        V_conflict
      end
      else begin
        m.committed <-
          IMap.filter
            (fun id _ -> not (ISet.mem id m.pend_del.(who)))
            m.committed;
        m.committed <-
          ISet.fold
            (fun id acc -> IMap.add id (Hashtbl.find m.all_rows id) acc)
            m.pend_ins.(who) m.committed;
        m.pend_ins.(who) <- ISet.empty;
        m.pend_del.(who) <- ISet.empty;
        V_ack
      end
  | Rollback ->
      m.pend_ins.(who) <- ISet.empty;
      m.pend_del.(who) <- ISet.empty;
      V_ack

(* ---- driving the real system ---- *)

let classify = function
  | P.Ack _ -> V_ack
  | P.Conflict _ -> V_conflict
  | P.Error _ -> V_error
  | P.Invalid _ -> V_invalid
  | _ -> V_error

let verdict_name = function
  | V_ack -> "ack"
  | V_conflict -> "conflict"
  | V_error -> "error"
  | V_invalid -> "invalid"

let resp_name = function
  | P.Ack m -> "ack: " ^ m
  | P.Conflict m -> "conflict: " ^ m
  | P.Error m -> "error: " ^ m
  | P.Invalid m -> "invalid: " ^ m
  | P.Rows _ -> "rows"
  | _ -> "other"

let ids_of_response = function
  | P.Rows { rows; _ } ->
      List.fold_left (fun acc r -> ISet.add r.(2) acc) ISet.empty rows
  | r -> QCheck.Test.fail_reportf "expected rows, got %s" (resp_name r)

(* Covers the whole generated domain ([0, 1000]); sentinel-wide bounds
   would overflow the backbone's range arithmetic. *)
let intersect_all sess =
  ids_of_response (S.handle sess (P.Intersect { lower = 0; upper = 2_000 }))

let set_to_string s =
  "{" ^ String.concat "," (List.map string_of_int (ISet.elements s)) ^ "}"

let check_view ~what expected got =
  if not (ISet.equal expected got) then
    QCheck.Test.fail_reportf "%s: model %s, system %s" what
      (set_to_string expected) (set_to_string got)

let ids_of_map m = IMap.fold (fun id _ acc -> ISet.add id acc) m ISet.empty

(* Replay one program; check the response class of every step and, after
   every step, each writer's view plus a pure reader's committed view. *)
let run_program steps =
  let sh = S.shared () in
  let sessions = Array.init n_writers (fun _ -> S.create sh) in
  let reader = S.create sh in
  let m = model () in
  List.iteri
    (fun i ({ who; op } as step) ->
      let req =
        match op with
        | Ins (lo, up, id) -> P.Insert { lower = lo; upper = up; id = Some id }
        | Del id ->
            let lo, up = Hashtbl.find m.all_rows id in
            P.Delete { lower = lo; upper = up; id }
        | Commit -> P.Commit
        | Rollback -> P.Rollback
      in
      (* predict BEFORE advancing the model for deletes: Del resolves
         its interval from all_rows, which Ins populates in [predict] —
         so resolve the request first (above), then advance. *)
      let expected = predict m step in
      let got = classify (S.handle sessions.(who) req) in
      if got <> expected then
        QCheck.Test.fail_reportf "step %d (%d:%s): model %s, system %s" i who
          (op_to_string op) (verdict_name expected) (verdict_name got);
      (* every writer sees committed ∪ own inserts ∖ own deletes *)
      Array.iteri
        (fun w sess ->
          check_view
            ~what:(Printf.sprintf "step %d writer %d" i w)
            (ids_of_map (own_view m w))
            (intersect_all sess))
        sessions;
      (* an innocent bystander sees exactly the committed state *)
      check_view
        ~what:(Printf.sprintf "step %d reader" i)
        (ids_of_map m.committed) (intersect_all reader))
    steps;
  Array.iter S.close sessions;
  S.close reader;
  true

let prop_isolation =
  QCheck.Test.make ~count:200 ~name:"random interleavings = oracle"
    arb_program run_program

(* ---- pinned snapshots: BEGIN freezes the reader's world ---- *)

let gen_pinned =
  QCheck.Gen.(
    let* prog = gen_program in
    let* pin_at = int_range 0 (List.length prog) in
    return (prog, pin_at))

let arb_pinned =
  QCheck.make
    ~print:(fun (p, k) -> Printf.sprintf "pin@%d [%s]" k (program_to_string p))
    gen_pinned

let run_pinned (steps, pin_at) =
  let sh = S.shared () in
  let sessions = Array.init n_writers (fun _ -> S.create sh) in
  let reader = S.create sh in
  let m = model () in
  let frozen = ref None in
  let maybe_pin i =
    if i = pin_at then begin
      (match S.handle reader P.Begin with
      | P.Ack _ -> ()
      | r ->
          QCheck.Test.fail_reportf "BEGIN: %s" (resp_name r));
      (* a second BEGIN is a client bug, not a state change *)
      (match S.handle reader P.Begin with
      | P.Invalid _ -> ()
      | r ->
          QCheck.Test.fail_reportf "nested BEGIN: %s" (resp_name r));
      frozen := Some (ids_of_map m.committed)
    end
  in
  maybe_pin 0;
  List.iteri
    (fun i ({ who; op } as step) ->
      let req =
        match op with
        | Ins (lo, up, id) -> P.Insert { lower = lo; upper = up; id = Some id }
        | Del id ->
            let lo, up = Hashtbl.find m.all_rows id in
            P.Delete { lower = lo; upper = up; id }
        | Commit -> P.Commit
        | Rollback -> P.Rollback
      in
      ignore (predict m step);
      ignore (S.handle sessions.(who) req);
      maybe_pin (i + 1);
      match !frozen with
      | Some world ->
          (* pinned: concurrent commits and rollbacks must not show *)
          check_view
            ~what:(Printf.sprintf "step %d pinned reader" i)
            world (intersect_all reader)
      | None ->
          check_view
            ~what:(Printf.sprintf "step %d unpinned reader" i)
            (ids_of_map m.committed) (intersect_all reader))
    steps;
  (* releasing the pin catches the reader up to the present *)
  (match S.handle reader P.Rollback with
  | P.Ack _ -> ()
  | r -> QCheck.Test.fail_reportf "release: %s" (resp_name r));
  check_view ~what:"released reader" (ids_of_map m.committed)
    (intersect_all reader);
  Array.iter S.close sessions;
  S.close reader;
  true

let prop_snapshot_stability =
  QCheck.Test.make ~count:100 ~name:"pinned snapshot is stable" arb_pinned
    run_pinned

(* ---- GC low-water regression: an idle session pinned at BEGIN holds
   the dead-row sidecar's low-water mark at its snapshot, so heavy
   churn and rowid reuse by everyone else never reclaims the dead rows
   it still reads. Releasing the pin lets the mark catch up. ---- *)

let test_pinned_low_water () =
  let sh = S.shared () in
  let mgr = S.txns sh in
  let writer = S.create sh in
  let reader = S.create sh in
  let exp_ack what = function
    | P.Ack _ -> ()
    | r -> Alcotest.failf "%s: %s" what (resp_name r)
  in
  (* ten committed rows the pinned reader will hold on to *)
  for id = 0 to 9 do
    exp_ack "insert"
      (S.handle writer
         (P.Insert { lower = id * 10; upper = (id * 10) + 5; id = Some id }))
  done;
  exp_ack "commit" (S.handle writer P.Commit);
  exp_ack "begin" (S.handle reader P.Begin);
  let pin = Relation.Txn.low_water mgr in
  (* churn: everything the reader sees dies, then twenty generations of
     fresh rows (each commit runs sidecar GC and recycles rowids) *)
  for id = 0 to 9 do
    exp_ack "delete"
      (S.handle writer
         (P.Delete { lower = id * 10; upper = (id * 10) + 5; id }))
  done;
  exp_ack "commit" (S.handle writer P.Commit);
  for round = 0 to 19 do
    for k = 0 to 4 do
      let id = 100 + (round * 5) + k in
      exp_ack "insert"
        (S.handle writer (P.Insert { lower = id; upper = id + 3; id = Some id }))
    done;
    exp_ack "commit" (S.handle writer P.Commit)
  done;
  (* the idle pinned session — no statement since BEGIN — still floors
     the low-water mark at its pin *)
  Alcotest.(check int) "low water held at the pin" pin
    (Relation.Txn.low_water mgr);
  Alcotest.(check bool) "churn advanced committed_lsn past the pin" true
    (Relation.Txn.committed_lsn mgr > pin);
  (* so its world is still exactly the ten original rows *)
  let expected =
    List.fold_left (fun a i -> ISet.add i a) ISet.empty
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  let seen = intersect_all reader in
  if not (ISet.equal expected seen) then
    Alcotest.failf "pinned reader lost rows after churn: %s"
      (set_to_string seen);
  (* releasing the pin releases the floor and shows the present *)
  exp_ack "release" (S.handle reader P.Rollback);
  Alcotest.(check int) "low water caught up on release"
    (Relation.Txn.committed_lsn mgr)
    (Relation.Txn.low_water mgr);
  let now = intersect_all reader in
  Alcotest.(check bool) "old rows gone after release" false (ISet.mem 0 now);
  Alcotest.(check bool) "new rows visible after release" true
    (ISet.mem 100 now);
  S.close writer;
  S.close reader

(* ---- query answers under a snapshot overlay ≡ brute force ----

   A reader pins its snapshot, buffers inserts of its own, and then
   another session commits deletes of rows the reader still sees, and
   a third commits inserts it must not see. Every typed Intersect,
   every Allen relation (Before/After probe with key filters) and the
   prepared Fig. 9 node statement (a covering probe of the lower index)
   must then answer exactly what a scan of the reader's visible rows
   answers: the physical rows pass the visibility check, the
   concurrently deleted ones and the reader's own inserts come from
   the overlay. *)

module Ivl = Interval.Ivl
module Allen = Interval.Allen

let gen_overlay_case =
  QCheck.Gen.(
    let ivl =
      let* lo = int_range 0 900 in
      let* w = int_range 0 120 in
      return (lo, lo + w)
    in
    let* base = list_size (int_range 1 60) ivl in
    let* own = list_size (int_range 0 8) ivl in
    let* later = list_size (int_range 0 8) ivl in
    let* del_mask = list_repeat (List.length base) (int_range 0 3) in
    let* queries = list_size (int_range 1 6) ivl in
    return (base, own, later, del_mask, queries))

let arb_overlay_case =
  let show l =
    String.concat ","
      (List.map (fun (a, b) -> Printf.sprintf "[%d,%d]" a b) l)
  in
  QCheck.make
    ~print:(fun (base, own, later, mask, queries) ->
      Printf.sprintf "base %s; own %s; later %s; deleted %s; queries %s"
        (show base) (show own) (show later)
        (String.concat "," (List.map string_of_int mask))
        (show queries))
    gen_overlay_case

let node_stmt = "SELECT id FROM intervals WHERE node = :node AND lower <= :qup"

let run_overlay_case (base, own, later, del_mask, queries) =
  let sh = S.shared () in
  let expect_ack what = function
    | P.Ack _ -> ()
    | r -> QCheck.Test.fail_reportf "%s: %s" what (resp_name r)
  in
  let base = Array.of_list (List.map (fun (l, u) -> Ivl.make l u) base) in
  S.preload sh base;
  let deleter = S.create sh and reader = S.create sh and writer = S.create sh in
  (* about a quarter of the base rows *)
  let deleted =
    List.concat (List.mapi (fun id m -> if m = 0 then [ id ] else []) del_mask)
  in
  List.iter
    (fun id ->
      let q = base.(id) in
      expect_ack "delete"
        (S.handle deleter
           (P.Delete { lower = Ivl.lower q; upper = Ivl.upper q; id })))
    deleted;
  expect_ack "begin" (S.handle reader P.Begin);
  expect_ack "prepare"
    (S.handle reader (P.Prepare { name = "fig9"; sql = node_stmt }));
  let own = List.mapi (fun i (l, u) -> (10_000 + i, Ivl.make l u)) own in
  List.iter
    (fun (id, q) ->
      expect_ack "own insert"
        (S.handle reader
           (P.Insert
              { lower = Ivl.lower q; upper = Ivl.upper q; id = Some id })))
    own;
  expect_ack "commit deletes" (S.handle deleter P.Commit);
  List.iteri
    (fun i (l, u) ->
      expect_ack "later insert"
        (S.handle writer
           (P.Insert { lower = l; upper = u; id = Some (20_000 + i) })))
    later;
  expect_ack "commit later inserts" (S.handle writer P.Commit);
  (* the reader's world: every base row (its snapshot predates the
     deletes) plus its own inserts, none of the later ones *)
  let visible = Array.to_list (Array.mapi (fun id q -> (id, q)) base) @ own in
  let tree = S.tree sh in
  let triples rows =
    List.sort compare
      (List.map (fun (id, q) -> [| Ivl.lower q; Ivl.upper q; id |]) rows)
  in
  let answer what req =
    match S.handle reader req with
    | P.Rows { rows; _ } -> List.sort compare rows
    | r -> QCheck.Test.fail_reportf "%s: %s" what (resp_name r)
  in
  let same what expect got =
    if expect <> got then
      QCheck.Test.fail_reportf "%s: expected %d rows, got %d (%s)" what
        (List.length expect) (List.length got)
        (String.concat " "
           (List.map
              (fun r ->
                String.concat "," (List.map string_of_int (Array.to_list r)))
              got))
  in
  List.iter
    (fun (l, u) ->
      let q = Ivl.make l u in
      same
        (Printf.sprintf "Intersect [%d,%d]" l u)
        (triples (List.filter (fun (_, i) -> Ivl.intersects i q) visible))
        (answer "Intersect" (P.Intersect { lower = l; upper = u }));
      List.iter
        (fun r ->
          same
            (Printf.sprintf "Allen %s [%d,%d]" (Allen.to_string r) l u)
            (triples (List.filter (fun (_, i) -> Allen.holds r i q) visible))
            (answer "Allen" (P.Allen { relation = r; lower = l; upper = u })))
        Allen.all;
      (* the node of the query's own fork and of every visible row *)
      let nodes =
        List.sort_uniq compare
          (Ri.fork_node tree q
          :: List.map (fun (_, i) -> Ri.fork_node tree i) visible)
      in
      List.iter
        (fun node ->
          same
            (Printf.sprintf "fig9 node %d qup %d" node u)
            (List.sort compare
               (List.filter_map
                  (fun (id, i) ->
                    if Ri.fork_node tree i = node && Ivl.lower i <= u then
                      Some [| id |]
                    else None)
                  visible))
            (answer "fig9"
               (P.Execute { name = "fig9"; params = [ node; u ] })))
        nodes)
    queries;
  List.iter S.close [ deleter; reader; writer ];
  true

let prop_overlay_answers =
  QCheck.Test.make ~count:60
    ~name:"pinned reader: Intersect, 13 Allen, fig9 ≡ visible rows"
    arb_overlay_case run_overlay_case

let () =
  Alcotest.run "txn"
    [ ( "isolation",
        [ QCheck_alcotest.to_alcotest prop_isolation;
          QCheck_alcotest.to_alcotest prop_snapshot_stability;
          Alcotest.test_case "idle pinned session floors dead-row GC" `Quick
            test_pinned_low_water;
          QCheck_alcotest.to_alcotest prop_overlay_answers ] ) ]
