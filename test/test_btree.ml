(* B+-tree: oracle-based randomized tests plus structural edge cases. *)

let check = Alcotest.check

let mk_pool ?(block_size = 256) ?(capacity = 64) () =
  Storage.Buffer_pool.create ~capacity (Storage.Block_device.create ~block_size ())

module KeySet = Set.Make (struct
  type t = int list

  let compare = compare
end)

let key_of_list = Array.of_list
let list_of_key = Array.to_list

(* ---- basic operations ---- *)

let test_empty () =
  let t = Btree.create (mk_pool ()) ~key_width:2 in
  check Alcotest.int "count" 0 (Btree.count t);
  check Alcotest.int "height" 1 (Btree.height t);
  check Alcotest.bool "mem" false (Btree.mem t [| 1; 2 |]);
  check (Alcotest.list (Alcotest.list Alcotest.int)) "to_list" []
    (List.map list_of_key (Btree.to_list t));
  check Alcotest.bool "min" true (Btree.min_key t = None);
  check Alcotest.bool "max" true (Btree.max_key t = None);
  Btree.check_invariants t

let test_insert_dup () =
  let t = Btree.create (mk_pool ()) ~key_width:1 in
  check Alcotest.bool "first" true (Btree.insert t [| 7 |]);
  check Alcotest.bool "dup" false (Btree.insert t [| 7 |]);
  check Alcotest.int "count" 1 (Btree.count t)

let test_key_width_validation () =
  let t = Btree.create (mk_pool ()) ~key_width:2 in
  Alcotest.check_raises "wrong width"
    (Invalid_argument "Btree: key width 1, expected 2") (fun () ->
      ignore (Btree.insert t [| 1 |]));
  Alcotest.check_raises "geometry"
    (Invalid_argument "Btree: key width 0 out of range 1..15") (fun () ->
      ignore (Btree.create (mk_pool ()) ~key_width:0))

let test_sequential_ascending () =
  let t = Btree.create (mk_pool ()) ~key_width:1 in
  for i = 0 to 999 do
    ignore (Btree.insert t [| i |])
  done;
  Btree.check_invariants t;
  check Alcotest.int "count" 1000 (Btree.count t);
  check Alcotest.bool "height grew" true (Btree.height t > 1);
  check
    (Alcotest.list Alcotest.int)
    "ordered" (List.init 1000 Fun.id)
    (List.map (fun k -> k.(0)) (Btree.to_list t))

let test_sequential_descending_then_delete_all () =
  let t = Btree.create (mk_pool ()) ~key_width:1 in
  for i = 999 downto 0 do
    ignore (Btree.insert t [| i |])
  done;
  Btree.check_invariants t;
  (* delete everything, evens first then odds descending; the tree must
     rebalance all the way down *)
  for i = 0 to 499 do
    ignore (Btree.delete t [| 2 * i |])
  done;
  for i = 499 downto 0 do
    ignore (Btree.delete t [| (2 * i) + 1 |])
  done;
  check Alcotest.int "empty" 0 (Btree.count t);
  check Alcotest.int "height back to 1" 1 (Btree.height t);
  Btree.check_invariants t

let test_page_reuse () =
  let t = Btree.create (mk_pool ()) ~key_width:1 in
  for i = 0 to 2000 do
    ignore (Btree.insert t [| i |])
  done;
  let pages_full = Btree.page_count t in
  for i = 0 to 2000 do
    ignore (Btree.delete t [| i |])
  done;
  check Alcotest.int "one leaf left" 1 (Btree.page_count t);
  (* freed pages must be recycled *)
  for i = 0 to 2000 do
    ignore (Btree.insert t [| i |])
  done;
  check Alcotest.bool "no unbounded growth"
    true
    (Btree.page_count t <= pages_full);
  Btree.check_invariants t

let test_range_scan_bounds () =
  let t = Btree.create (mk_pool ()) ~key_width:1 in
  List.iter (fun i -> ignore (Btree.insert t [| i |])) [ 2; 4; 6; 8; 10 ];
  let range lo hi =
    List.map (fun k -> k.(0)) (Btree.range_list t ~lo:[| lo |] ~hi:[| hi |])
  in
  check (Alcotest.list Alcotest.int) "inclusive" [ 4; 6; 8 ] (range 4 8);
  check (Alcotest.list Alcotest.int) "between keys" [ 4; 6; 8 ] (range 3 9);
  check (Alcotest.list Alcotest.int) "empty" [] (range 11 20);
  check (Alcotest.list Alcotest.int) "below" [] (range (-5) 1);
  check (Alcotest.list Alcotest.int) "single" [ 6 ] (range 6 6);
  check (Alcotest.list Alcotest.int) "all" [ 2; 4; 6; 8; 10 ]
    (range min_int max_int)

let test_prefix_pads () =
  let t = Btree.create (mk_pool ()) ~key_width:3 in
  List.iter
    (fun (a, b, c) -> ignore (Btree.insert t [| a; b; c |]))
    [ (1, 5, 0); (1, 7, 1); (2, 1, 2); (2, 9, 3); (3, 0, 4) ];
  let hits =
    Btree.range_list t ~lo:(Btree.lo_pad t [ 2 ]) ~hi:(Btree.hi_pad t [ 2 ])
  in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "prefix 2"
    [ [ 2; 1; 2 ]; [ 2; 9; 3 ] ]
    (List.map list_of_key hits)

let test_negative_keys () =
  let t = Btree.create (mk_pool ()) ~key_width:2 in
  List.iter
    (fun (a, b) -> ignore (Btree.insert t [| a; b |]))
    [ (-5, 3); (-5, -9); (0, 0); (7, -2); (min_int + 1, 4) ];
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "sorted with negatives"
    [ [ min_int + 1; 4 ]; [ -5; -9 ]; [ -5; 3 ]; [ 0; 0 ]; [ 7; -2 ] ]
    (List.map list_of_key (Btree.to_list t))

(* ---- bulk loading ---- *)

let test_bulk_load_matches_inserts () =
  let keys = List.init 5000 (fun i -> [| (i * 37) mod 100_000; i |]) in
  let sorted = List.sort Btree.compare_keys keys in
  let bulk =
    Btree.bulk_load (mk_pool ~capacity:300 ()) ~key_width:2
      (List.to_seq sorted)
  in
  Btree.check_invariants ~occupancy:false bulk;
  check Alcotest.int "count" 5000 (Btree.count bulk);
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "same contents"
    (List.map list_of_key sorted)
    (List.map list_of_key (Btree.to_list bulk));
  (* the bulk tree stays fully operational *)
  ignore (Btree.insert bulk [| -1; -1 |]);
  ignore (Btree.delete bulk (List.hd sorted));
  Btree.check_invariants ~occupancy:false bulk

let test_bulk_load_rejects_unsorted () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Btree.bulk_load: keys not strictly increasing")
    (fun () ->
      ignore
        (Btree.bulk_load (mk_pool ()) ~key_width:1
           (List.to_seq [ [| 2 |]; [| 1 |] ])))

let test_bulk_load_empty () =
  let t = Btree.bulk_load (mk_pool ()) ~key_width:2 Seq.empty in
  check Alcotest.int "count" 0 (Btree.count t);
  Btree.check_invariants t

(* ---- randomized oracle comparison ---- *)

let random_ops_agree_with_set seed n =
  let rng = Workload.Prng.create ~seed in
  let t = Btree.create (mk_pool ~capacity:128 ()) ~key_width:2 in
  let model = ref KeySet.empty in
  for _ = 1 to n do
    let k = [ Workload.Prng.int rng 50; Workload.Prng.int rng 50 ] in
    if Workload.Prng.int rng 3 = 0 then begin
      let removed = Btree.delete t (key_of_list k) in
      let expected = KeySet.mem k !model in
      if removed <> expected then
        Alcotest.failf "delete %s: got %b" (String.concat "," (List.map string_of_int k)) removed;
      model := KeySet.remove k !model
    end
    else begin
      let added = Btree.insert t (key_of_list k) in
      let expected = not (KeySet.mem k !model) in
      if added <> expected then
        Alcotest.failf "insert %s: got %b" (String.concat "," (List.map string_of_int k)) added;
      model := KeySet.add k !model
    end
  done;
  Btree.check_invariants t;
  let got = List.map list_of_key (Btree.to_list t) in
  let expected = KeySet.elements !model in
  if got <> expected then Alcotest.fail "final contents differ";
  (* random range scans *)
  for _ = 1 to 50 do
    let a = Workload.Prng.int rng 50 and b = Workload.Prng.int rng 50 in
    let lo = [ min a b; min_int ] and hi = [ max a b; max_int ] in
    let got =
      List.map list_of_key
        (Btree.range_list t ~lo:(key_of_list lo) ~hi:(key_of_list hi))
    in
    let expected =
      KeySet.elements
        (KeySet.filter (fun k -> k >= lo && k <= hi) !model)
    in
    if got <> expected then Alcotest.fail "range scan differs"
  done

let test_random_small () = random_ops_agree_with_set 1 2_000
let test_random_larger () = random_ops_agree_with_set 2 8_000

let prop_insert_then_mem =
  QCheck.Test.make ~count:60 ~name:"insert implies mem; delete implies not mem"
    QCheck.(list (pair (int_range 0 200) (int_range 0 200)))
    (fun pairs ->
      let t = Btree.create (mk_pool ()) ~key_width:2 in
      List.iter (fun (a, b) -> ignore (Btree.insert t [| a; b |])) pairs;
      List.for_all (fun (a, b) -> Btree.mem t [| a; b |]) pairs
      && begin
           List.iter (fun (a, b) -> ignore (Btree.delete t [| a; b |])) pairs;
           List.for_all (fun (a, b) -> not (Btree.mem t [| a; b |])) pairs
           && Btree.count t = 0
         end)

(* Wide keys and tiny pages force deep trees. *)
let test_deep_tree_small_pages () =
  let pool = mk_pool ~block_size:256 ~capacity:512 () in
  let t = Btree.create pool ~key_width:6 in
  let rng = Workload.Prng.create ~seed:5 in
  let inserted = ref [] in
  for i = 0 to 3000 do
    let k = Array.init 6 (fun j -> if j < 5 then Workload.Prng.int rng 10 else i) in
    ignore (Btree.insert t k);
    inserted := Array.copy k :: !inserted
  done;
  Btree.check_invariants t;
  check Alcotest.bool "deep" true (Btree.height t >= 4);
  List.iter
    (fun k ->
      if not (Btree.mem t k) then Alcotest.fail "lost key in deep tree")
    !inserted

let test_min_max () =
  let t = Btree.create (mk_pool ()) ~key_width:1 in
  List.iter (fun i -> ignore (Btree.insert t [| i |])) [ 42; -3; 17; 100 ];
  check (Alcotest.option (Alcotest.list Alcotest.int)) "min" (Some [ -3 ])
    (Option.map list_of_key (Btree.min_key t));
  check (Alcotest.option (Alcotest.list Alcotest.int)) "max" (Some [ 100 ])
    (Option.map list_of_key (Btree.max_key t))

(* ---- in-place pages on a tiny pool ----

   Descents, leaf updates and cursors work on pinned page bytes, and a
   pool of 4-8 frames recycles a frame on nearly every pin, so these
   tests catch any use of page bytes after their unpin. *)

let page_size = 256

let leaf_cap width = (page_size - 16) / (8 * width)

let tiny_pool frames = mk_pool ~block_size:page_size ~capacity:frames ()

let keys_of t = List.map list_of_key (Btree.to_list t)

(* Drain a cursor from its current position. *)
let drain c =
  let rec go acc =
    match Btree.next c with Some k -> go (list_of_key k :: acc) | None -> acc
  in
  List.rev (go [])

let model_range model lo hi =
  let lo = list_of_key lo and hi = list_of_key hi in
  KeySet.elements (KeySet.filter (fun k -> k >= lo && k <= hi) model)

type op =
  | Ins of Btree.key
  | Del of Btree.key
  | Range of Btree.key * Btree.key
  | Reset of Btree.key * Btree.key  (* reposition one long-lived cursor *)

let show_key k = String.concat "," (List.map string_of_int (list_of_key k))

let show_op = function
  | Ins k -> "+" ^ show_key k
  | Del k -> "-" ^ show_key k
  | Range (lo, hi) -> Printf.sprintf "range(%s..%s)" (show_key lo) (show_key hi)
  | Reset (lo, hi) -> Printf.sprintf "reset(%s..%s)" (show_key lo) (show_key hi)

(* Each component comes from a domain sized so that about 2000 keys
   exist at every width: inserts and deletes collide often, and trees
   still grow to three or four levels on 256-byte pages. *)
let gen_case =
  let open QCheck.Gen in
  int_range 1 4 >>= fun width ->
  int_range 4 8 >>= fun frames ->
  let dom = [| 2000; 45; 13; 7 |].(width - 1) in
  let key = array_size (return width) (int_range 0 (dom - 1)) in
  let bounds =
    map2
      (fun a b -> if Btree.compare_keys a b <= 0 then (a, b) else (b, a))
      key key
  in
  let op ~ins ~del =
    frequency
      [ (ins, map (fun k -> Ins k) key);
        (del, map (fun k -> Del k) key);
        (1, map (fun (lo, hi) -> Range (lo, hi)) bounds);
        (1, map (fun (lo, hi) -> Reset (lo, hi)) bounds) ]
  in
  let batch =
    oneof
      [ list_size (int_range 0 400) (op ~ins:8 ~del:1);  (* grow: splits *)
        list_size (int_range 0 400) (op ~ins:1 ~del:8);  (* shrink: merges *)
        list_size (int_range 0 100) (op ~ins:3 ~del:3) ]
  in
  list_size (int_range 1 6) batch >|= fun batches -> (width, frames, batches)

let print_case (width, frames, batches) =
  Printf.sprintf "width %d, %d frames:\n%s" width frames
    (String.concat "\n"
       (List.map (fun b -> String.concat " " (List.map show_op b)) batches))

let prop_in_place_model =
  QCheck.Test.make ~count:40
    ~name:"insert/delete/range/reset on a 4-8 frame pool = sorted set"
    (QCheck.make ~print:print_case gen_case)
    (fun (width, frames, batches) ->
      let t = Btree.create (tiny_pool frames) ~key_width:width in
      let lo0 = Btree.lo_pad t [] and hi0 = Btree.hi_pad t [] in
      let c = Btree.cursor t ~lo:lo0 ~hi:hi0 in
      let model = ref KeySet.empty in
      let step = function
        | Ins k ->
            let fresh = not (KeySet.mem (list_of_key k) !model) in
            model := KeySet.add (list_of_key k) !model;
            Btree.insert t k = fresh
        | Del k ->
            let present = KeySet.mem (list_of_key k) !model in
            model := KeySet.remove (list_of_key k) !model;
            Btree.delete t k = present
        | Range (lo, hi) ->
            List.map list_of_key (Btree.range_list t ~lo ~hi)
            = model_range !model lo hi
        | Reset (lo, hi) ->
            Btree.reset c ~lo ~hi;
            drain c = model_range !model lo hi
      in
      List.for_all
        (fun batch ->
          List.for_all step batch
          && begin
               Btree.check_invariants t;
               Btree.count t = KeySet.cardinal !model
               && keys_of t = KeySet.elements !model
             end)
        batches)

(* Walk the leaf-full, split, borrow and merge boundaries one key at a
   time, at every width, on a 4-frame pool. *)
let test_leaf_boundaries () =
  for width = 1 to 4 do
    let t = Btree.create (tiny_pool 4) ~key_width:width in
    let key i = Array.init width (fun j -> if j = width - 1 then i else j) in
    let cap = leaf_cap width in
    for i = 1 to cap do
      ignore (Btree.insert t (key i))
    done;
    Btree.check_invariants t;
    check Alcotest.int "full leaf, not split" 1 (Btree.page_count t);
    ignore (Btree.insert t (key (cap + 1)));
    Btree.check_invariants t;
    check Alcotest.int "split: two leaves and a root" 3 (Btree.page_count t);
    check Alcotest.int "split: height 2" 2 (Btree.height t);
    (* Delete from the left leaf, smallest key first. Without borrowing
       it would merge as soon as it fell below half; borrowing from the
       right sibling postpones the merge by at least one delete. *)
    let left = (cap + 1) / 2 and half = cap / 2 in
    let d = ref 0 in
    while Btree.page_count t > 1 do
      incr d;
      check Alcotest.bool "present" true (Btree.delete t (key !d));
      Btree.check_invariants t
    done;
    check Alcotest.bool "borrowed before merging" true
      (!d > left - half + 1);
    check Alcotest.int "merged: height 1" 1 (Btree.height t);
    check
      (Alcotest.list (Alcotest.list Alcotest.int))
      "survivors"
      (List.init (cap + 1 - !d) (fun i -> list_of_key (key (!d + 1 + i))))
      (keys_of t)
  done

(* The same boundaries one level up: grow until an internal node splits
   (height 3), then shrink until internal nodes have borrowed and merged
   back down to a single leaf. *)
let test_node_boundaries () =
  for width = 1 to 4 do
    let t = Btree.create (tiny_pool 4) ~key_width:width in
    let key i = Array.make width i in
    let n = ref 0 in
    while Btree.height t < 3 do
      incr n;
      ignore (Btree.insert t (key !n));
      Btree.check_invariants t
    done;
    let heights = ref [ 3 ] in
    for i = 1 to !n do
      ignore (Btree.delete t (key i));
      Btree.check_invariants t;
      if Btree.height t <> List.hd !heights then
        heights := Btree.height t :: !heights
    done;
    check (Alcotest.list Alcotest.int) "height 3 -> 2 -> 1" [ 1; 2; 3 ]
      !heights;
    check Alcotest.int "empty" 0 (Btree.count t)
  done

(* A cursor owns a copy of its leaf: when the leaf is evicted mid-scan
   and its frame refilled with other pages, the scan must go on with the
   right keys. *)
let test_cursor_leaf_evicted () =
  let pool = tiny_pool 4 in
  let t = Btree.create pool ~key_width:2 in
  let other = Btree.create pool ~key_width:1 in
  for i = 0 to 499 do
    ignore (Btree.insert t [| i; -i |]);
    ignore (Btree.insert other [| i |])
  done;
  let c = Btree.cursor t ~lo:[| 100; min_int |] ~hi:[| 400; max_int |] in
  let first = ref [] in
  for _ = 1 to 3 do
    Option.iter (fun k -> first := list_of_key k :: !first) (Btree.next c)
  done;
  let misses () =
    (Storage.Buffer_pool.Stats.get pool).Storage.Buffer_pool.Stats.misses
  in
  let before = misses () in
  for i = 0 to 499 do
    ignore (Btree.mem other [| i |])
  done;
  check Alcotest.bool "every frame refilled" true (misses () - before > 4);
  let rest = drain c in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "scan answer"
    (List.init 301 (fun i -> [ 100 + i; -(100 + i) ]))
    (List.rev !first @ rest)

(* The pool's recency order follows the order in which B+-tree
   operations pin pages, and it decides every eviction, so these exact
   counts of a seeded insert/delete/mem/scan mix on an 8-frame pool pin
   that order down: a change to which pages an operation pins, or when,
   moves them. Update them only for an intended change of the physical
   I/O, together with test/paper_io.golden. *)
let test_pin_order_io () =
  let dev = Storage.Block_device.create ~block_size:page_size () in
  let pool = Storage.Buffer_pool.create ~capacity:8 dev in
  let t = Btree.create pool ~key_width:2 in
  let rng = Workload.Prng.create ~seed:12 in
  let key () = [| Workload.Prng.int rng 40; Workload.Prng.int rng 40 |] in
  (* Mostly inserts for the first half, mostly deletes for the second. *)
  let update ~insert =
    let k = key () in
    ignore (if insert then Btree.insert t k else Btree.delete t k)
  in
  for i = 1 to 6_000 do
    let grow = i <= 3_000 in
    match Workload.Prng.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 | 5 -> update ~insert:grow
    | 6 -> update ~insert:(not grow)
    | 7 | 8 -> ignore (Btree.mem t (key ()))
    | _ ->
        let a = key () in
        ignore (Btree.range_list t ~lo:a ~hi:[| a.(0) + 3; 0 |])
  done;
  Storage.Buffer_pool.flush pool;
  let p = Storage.Buffer_pool.Stats.get pool in
  let d = Storage.Block_device.Stats.get dev in
  check
    (Alcotest.list Alcotest.int)
    "logical reads, hits, misses, evictions, device reads, writes"
    [ 32474; 19358; 13116; 13218; 13116; 3285 ]
    Storage.Buffer_pool.Stats.
      [ p.logical_reads; p.hits; p.misses; p.evictions;
        d.Storage.Block_device.Stats.reads; d.Storage.Block_device.Stats.writes ]

let () =
  Alcotest.run "btree"
    [
      ("basic",
       [ Alcotest.test_case "empty tree" `Quick test_empty;
         Alcotest.test_case "duplicate insert" `Quick test_insert_dup;
         Alcotest.test_case "width validation" `Quick
           test_key_width_validation;
         Alcotest.test_case "min/max" `Quick test_min_max;
         Alcotest.test_case "negative components" `Quick test_negative_keys ]);
      ("structure",
       [ Alcotest.test_case "ascending fill" `Quick test_sequential_ascending;
         Alcotest.test_case "descending fill + full delete" `Quick
           test_sequential_descending_then_delete_all;
         Alcotest.test_case "page free list reuse" `Quick test_page_reuse;
         Alcotest.test_case "deep tree, wide keys" `Quick
           test_deep_tree_small_pages ]);
      ("scans",
       [ Alcotest.test_case "range bounds" `Quick test_range_scan_bounds;
         Alcotest.test_case "prefix pads" `Quick test_prefix_pads ]);
      ("bulk",
       [ Alcotest.test_case "bulk load = inserts" `Quick
           test_bulk_load_matches_inserts;
         Alcotest.test_case "rejects unsorted" `Quick
           test_bulk_load_rejects_unsorted;
         Alcotest.test_case "empty bulk" `Quick test_bulk_load_empty ]);
      ("oracle",
       [ Alcotest.test_case "random ops vs Set (2k)" `Quick test_random_small;
         Alcotest.test_case "random ops vs Set (8k)" `Slow test_random_larger;
         QCheck_alcotest.to_alcotest prop_insert_then_mem ]);
      ("in place",
       [ Alcotest.test_case "leaf full/split/borrow/merge" `Quick
           test_leaf_boundaries;
         Alcotest.test_case "node split/borrow/merge" `Quick
           test_node_boundaries;
         Alcotest.test_case "cursor leaf evicted mid-scan" `Quick
           test_cursor_leaf_evicted;
         Alcotest.test_case "pin order: exact I/O counts" `Quick
           test_pin_order_io;
         QCheck_alcotest.to_alcotest prop_in_place_model ]);
    ]
