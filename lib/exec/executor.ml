(* The one iterator-based executor behind every query path (SQL text,
   typed wire ops, the CLI and the benchmarks). Branches execute as
   right-deep nested loops over cursors: transient collections and
   streaming heap scans as outer loops, B+tree range probes as inner
   loops — the Fig. 10 execution shape.

   A plan is compiled once per execution, never per row: every column
   reference resolves to a slot (step depth, column position) in one
   environment holding the row each enclosing step has bound, every
   host variable to a constant, and filters, probe bounds and
   projections become closures over that environment. Each index-scan
   step reuses one B+-tree cursor and one pair of key buffers across
   its probes.

   Every IR node type has exactly one `Obs.Trace` instrumentation point:
   a `sql.branch` span per UNION ALL branch and, when tracing is
   enabled, an `exec.*` span per node invocation (collection iterate,
   seq scan, index probe, group, aggregate, sort). The disabled path
   stays a plain call. *)

exception Error = Ir.Error

let fail = Ir.fail

(* ---------------- name resolution and compiled evaluation ---------------- *)

(* What a nested loop has bound, per step depth: the step's alias and
   the columns its row exposes. *)
type scope = (string * string array) array

(* The row bound at each depth of a scope. A row may carry trailing
   cells its columns do not name (a covering index entry's rowid). *)
type env = int array array

let col_position columns c =
  let rec go i =
    if i >= Array.length columns then None
    else if columns.(i) = c then Some i
    else go (i + 1)
  in
  go 0

type slot = Slot of int * int | Unresolved of string

(* An alias names its outermost binding; a bare column must be exposed
   by exactly one binding. *)
let resolve (scope : scope) alias col =
  let n = Array.length scope in
  match alias with
  | Some a ->
      let rec find d =
        if d >= n then Unresolved (Printf.sprintf "unknown alias %s" a)
        else if fst scope.(d) <> a then find (d + 1)
        else
          match col_position (snd scope.(d)) col with
          | Some i -> Slot (d, i)
          | None ->
              Unresolved (Printf.sprintf "alias %s has no column %s" a col)
      in
      find 0
  | None -> (
      let hits =
        List.filter_map
          (fun d ->
            Option.map (fun i -> (d, i)) (col_position (snd scope.(d)) col))
          (List.init n Fun.id)
      in
      match hits with
      | [ (d, i) ] -> Slot (d, i)
      | [] -> Unresolved (Printf.sprintf "unknown column %s" col)
      | _ -> Unresolved (Printf.sprintf "ambiguous column %s" col))

(* A reference that does not resolve compiles into a closure raising
   its resolution error, so it fails only when evaluated. *)
let compile_value binds (scope : scope) : Ir.value -> env -> int = function
  | Ir.Const n -> fun _ -> n
  | Ir.Param h -> (
      match List.assoc_opt h binds with
      | Some v -> fun _ -> v
      | None -> fun _ -> fail "missing host variable :%s" h)
  | Ir.Field (alias, col) -> (
      match resolve scope alias col with
      | Slot (d, i) -> fun env -> env.(d).(i)
      | Unresolved msg -> fun _ -> raise (Error msg))

let rec compile_pred binds scope : Ir.pred -> env -> bool = function
  | Ir.Cmp (op, a, b) ->
      let va = compile_value binds scope a
      and vb = compile_value binds scope b in
      let test : int -> int -> bool =
        match op with
        | Ir.Eq -> ( = )
        | Ir.Ne -> ( <> )
        | Ir.Lt -> ( < )
        | Ir.Le -> ( <= )
        | Ir.Gt -> ( > )
        | Ir.Ge -> ( >= )
      in
      fun env ->
        let x = va env in
        test x (vb env)
  | Ir.Between (e, lo, hi) ->
      let ve = compile_value binds scope e
      and vlo = compile_value binds scope lo
      and vhi = compile_value binds scope hi in
      fun env ->
        let v = ve env in
        vlo env <= v && v <= vhi env
  | Ir.And (a, b) ->
      let pa = compile_pred binds scope a and pb = compile_pred binds scope b in
      fun env -> pa env && pb env
  | Ir.Or (a, b) ->
      let pa = compile_pred binds scope a and pb = compile_pred binds scope b in
      fun env -> pa env || pb env
  | Ir.Not e ->
      let p = compile_pred binds scope e in
      fun env -> not (p env)

(* A conjunction, evaluated left to right with short circuit. *)
let rec compile_conj binds scope = function
  | [] -> fun _ -> true
  | [ p ] -> compile_pred binds scope p
  | p :: rest ->
      let p = compile_pred binds scope p
      and rest = compile_conj binds scope rest in
      fun env -> p env && rest env

(* ---------------- node execution ---------------- *)

(* Inclusive lexicographic range check for injecting snapshot-overlay
   rows into an index probe: an overlay row participates exactly when
   its index entry would have fallen inside the probe's key range. *)
let key_le a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then true
    else if a.(i) < b.(i) then true
    else if a.(i) > b.(i) then false
    else go (i + 1)
  in
  go 0

let key_in_range ~lo ~hi key = key_le lo key && key_le key hi

let node_span (step : Ir.step) =
  match (step.source, step.access) with
  | Ir.Collection _, _ -> "exec.collection"
  | Ir.Mem _, _ -> "memtier.probe"
  | Ir.Base _, Ir.Seq_scan -> "exec.seq_scan"
  | Ir.Base _, Ir.Index_scan _ -> "exec.index_scan"
  | Ir.Base _, Ir.Mem_probe _ -> "exec.invalid"

(* The columns a step's bound row exposes, and whether the row is a
   covering index entry that still carries its rowid. *)
let row_shape ctx (step : Ir.step) =
  match (step.Ir.source, step.Ir.access) with
  | Ir.Collection name, _ -> (
      match ctx.Ir.collection name with
      | Some (columns, _) -> (columns, false)
      | None -> (step.Ir.columns, false))
  | Ir.Base _, Ir.Index_scan { index; covering = true; _ } ->
      (Relation.Table.Index.columns index, true)
  | Ir.Base tbl, (Ir.Seq_scan | Ir.Index_scan _) ->
      (Relation.Table.columns tbl, false)
  | Ir.Base _, Ir.Mem_probe _ | Ir.Mem _, _ -> (step.Ir.columns, false)

(* Compile the step at depth [d]: a closure that runs the step once
   (one scan or probe under the rows the outer steps bound) and calls
   [k] for every row it binds at [env.(d)] that passes its filters.
   Probe bounds see the outer steps only; key filters see them plus
   the index entry, residual filters plus the bound row. *)
let compile_step ctx (scope : scope) (env : env) d (step : Ir.step) k =
  let binds = ctx.Ir.binds in
  let outer = Array.sub scope 0 d in
  let filter =
    compile_conj binds (Array.sub scope 0 (d + 1)) step.Ir.filters
  in
  let visit row =
    env.(d) <- row;
    if filter env then begin
      step.Ir.seen <- step.Ir.seen + 1;
      k ()
    end
  in
  let visible_in = function
    | None -> fun _ -> true
    | Some v -> v.Relation.Txn.visible
  in
  let body =
    match (step.Ir.source, step.Ir.access) with
    | Ir.Collection name, _ -> (
        match ctx.Ir.collection name with
        | None -> fun () -> fail "collection %s disappeared" name
        | Some (_, rows) -> fun () -> List.iter visit rows)
    | Ir.Mem h, Ir.Mem_probe { op; lo; hi; _ } ->
        let lo = compile_value binds outer lo
        and hi = compile_value binds outer hi in
        fun () ->
          let lo = lo env in
          let up = hi env in
          List.iter
            (fun (l, u, id) -> visit [| l; u; id |])
            (h.Ir.mem_probe op ~lo ~up)
    | Ir.Mem _, _ -> fun () -> fail "hot-tier source requires a memory probe"
    | Ir.Base _, Ir.Mem_probe _ ->
        fun () -> fail "memory probe against a base table"
    | Ir.Base tbl, Ir.Seq_scan ->
        (* Streaming scan: the heap cursor holds one page of rows at a
           time, so a sequential scan of any size runs in constant
           memory. The rowid goes to the snapshot visibility check. *)
        fun () ->
          let view = ctx.Ir.vis (Relation.Table.name tbl) in
          let accept = visible_in view in
          let c = Relation.Heap.cursor (Relation.Table.heap tbl) in
          let rec go () =
            match Relation.Heap.next c with
            | Some (rowid, row) ->
                if accept rowid then visit row;
                go ()
            | None -> ()
          in
          go ();
          Option.iter
            (fun v -> List.iter visit (v.Relation.Txn.extra ()))
            view
    | ( Ir.Base tbl,
        Ir.Index_scan { index; eq; lo; hi; refine_lo; refine_hi; covering } )
      ->
        let width = Btree.key_width (Relation.Table.Index.tree index) in
        let eq = Array.of_list (List.map (compile_value binds outer) eq) in
        let neq = Array.length eq in
        (* an exclusive bound moves one key value inwards *)
        let bound delta = function
          | None -> None
          | Some { Ir.v; inclusive } ->
              let g = compile_value binds outer v in
              Some (if inclusive then g else fun env -> g env + delta)
        in
        let lo = bound 1 lo and hi = bound (-1) hi in
        let rpos = neq + if lo <> None || hi <> None then 1 else 0 in
        let refine = rpos > neq && rpos < width in
        let refine_lo = if refine then bound 1 refine_lo else None
        and refine_hi = if refine then bound (-1) refine_hi else None in
        let lo_key = Array.make width min_int
        and hi_key = Array.make width max_int in
        let set key i = Option.iter (fun g -> key.(i) <- g env) in
        let probe = Relation.Iter.index_probe index in
        (* key filters see the index entry (its rowid past the named
           columns), so non-matching entries are skipped without a
           fetch *)
        let key_ok =
          compile_conj binds
            (Array.append outer
               [| (step.Ir.alias, Relation.Table.Index.columns index) |])
            step.Ir.key_filters
        in
        let keyed key =
          env.(d) <- key;
          key_ok env
        in
        fun () ->
          Array.fill lo_key 0 width min_int;
          Array.fill hi_key 0 width max_int;
          for i = 0 to neq - 1 do
            let v = eq.(i) env in
            lo_key.(i) <- v;
            hi_key.(i) <- v
          done;
          set lo_key neq lo;
          set hi_key neq hi;
          set lo_key rpos refine_lo;
          set hi_key rpos refine_hi;
          let view = ctx.Ir.vis (Relation.Table.name tbl) in
          let accept = visible_in view in
          let next = probe ~lo:lo_key ~hi:hi_key in
          let rec go () =
            match next () with
            | Some key ->
                let rowid = key.(Array.length key - 1) in
                (if accept rowid && keyed key then
                   if covering then visit key
                   else
                     match Relation.Table.fetch tbl rowid with
                     | Some row -> visit row
                     | None -> ());
                go ()
            | None -> ()
          in
          go ();
          (* Overlay rows are injected per probe: each row's index
             entry joins exactly the probes whose key range would have
             contained its physical registration, so UNION ALL branch
             disjointness and per-probe key filters behave as for
             physical rows. The rowid slot is unconstrained in every
             probe (min_int..max_int), so a pseudo-rowid of 0 never
             decides the comparison. *)
          Option.iter
            (fun v ->
              List.iter
                (fun row ->
                  let key = Relation.Table.Index.key_of_row index 0 row in
                  if key_in_range ~lo:lo_key ~hi:hi_key key && keyed key then
                    visit (if covering then key else row))
                (v.Relation.Txn.extra ()))
            view
  in
  fun () ->
    if Obs.Trace.enabled () then
      Obs.Trace.with_span (node_span step) ~info:step.Ir.alias body
    else body ()

(* The output row of a branch, read off the environment once every step
   has bound its row. *)
let compile_projection binds (scope : scope) entries projections =
  let col = function
    | Ir.Col (alias, c) ->
        Some (compile_value binds scope (Ir.Field (alias, c)))
    | Ir.Star | Ir.Count_star | Ir.Agg _ -> None
  in
  let cols = List.map col projections in
  if List.for_all Option.is_some cols then begin
    let cols = Array.of_list (List.map Option.get cols) in
    let n = Array.length cols in
    fun env ->
      let row = Array.make n 0 in
      for i = 0 to n - 1 do
        row.(i) <- cols.(i) env
      done;
      row
  end
  else
    let piece = function
      | Ir.Star ->
          fun (env : env) ->
            Array.concat
              (List.mapi
                 (fun d covering ->
                   let r = env.(d) in
                   if covering then Array.sub r 0 (Array.length r - 1) else r)
                 entries)
      | Ir.Count_star -> fun _ -> [||]
      | Ir.Agg _ -> fun _ -> fail "aggregate outside an aggregate query"
      | Ir.Col (alias, c) ->
          let v = compile_value binds scope (Ir.Field (alias, c)) in
          fun env -> [| v env |]
    in
    let pieces = List.map piece projections in
    fun env -> Array.concat (List.map (fun p -> p env) pieces)

(* Run one branch, prepending its output rows to [acc], newest first. *)
let run_branch ctx (branch : Ir.branch) acc =
  Obs.Trace.with_span "sql.branch"
    ~info:
      (String.concat "," (List.map (fun s -> s.Ir.alias) branch.Ir.steps))
  @@ fun () ->
  let steps = Array.of_list branch.Ir.steps in
  let shapes = Array.map (row_shape ctx) steps in
  let scope =
    Array.map2 (fun (s : Ir.step) (c, _) -> (s.Ir.alias, c)) steps shapes
  in
  let env = Array.make (Array.length steps) [||] in
  let project =
    compile_projection ctx.Ir.binds scope
      (Array.to_list (Array.map snd shapes))
      branch.Ir.projections
  in
  let rows = ref acc in
  let rec chain d =
    if d = Array.length steps then fun () -> rows := project env :: !rows
    else compile_step ctx scope env d steps.(d) (chain (d + 1))
  in
  chain 0 ();
  !rows

let projection_columns (branch : Ir.branch) =
  List.concat_map
    (function
      | Ir.Star ->
          List.concat_map
            (fun (s : Ir.step) -> Array.to_list s.Ir.columns)
            branch.Ir.steps
      | Ir.Count_star -> [ "count" ]
      | Ir.Agg (a, (_, c)) ->
          [ Printf.sprintf "%s(%s)"
              (String.lowercase_ascii (Ir.agg_to_string a))
              c ]
      | Ir.Col (_, c) -> [ c ])
    branch.Ir.projections

let is_aggregate_projection = function
  | Ir.Count_star | Ir.Agg _ -> true
  | Ir.Star | Ir.Col _ -> false

(* ---------------- grouping, aggregation, ordering ---------------- *)

(* GROUP BY: one pass over the branch's rows, accumulating per group
   key. Plain projections must be grouping columns; aggregate order-by
   keys are not supported. *)
let run_group_by ctx (branch : Ir.branch) =
  Obs.Trace.with_span "exec.group" @@ fun () ->
  let group = branch.Ir.group_by in
  let is_group_col (alias, c) =
    List.exists (fun (_, gc) -> gc = c) group
    && match alias with _ -> true
  in
  List.iter
    (function
      | Ir.Col (a, c) when not (is_group_col (a, c)) ->
          fail "column %s is not in GROUP BY" c
      | Ir.Star -> fail "SELECT * cannot be combined with GROUP BY"
      | Ir.Col _ | Ir.Count_star | Ir.Agg _ -> ())
    branch.Ir.projections;
  let agg_cols =
    List.filter_map
      (function
        | Ir.Agg (_, target) -> Some target
        | Ir.Count_star | Ir.Star | Ir.Col _ -> None)
      branch.Ir.projections
  in
  let branch' =
    { branch with
      Ir.projections =
        List.map (fun (a, c) -> Ir.Col (a, c)) group
        @ List.map (fun (a, c) -> Ir.Col (a, c)) agg_cols }
  in
  let rows = List.rev (run_branch ctx branch' []) in
  let karity = List.length group in
  let groups : (int list, int * int list array) Hashtbl.t =
    Hashtbl.create 64
  in
  let order = ref [] in
  List.iter
    (fun row ->
      let key = Array.to_list (Array.sub row 0 karity) in
      let vals =
        Array.init (List.length agg_cols) (fun i -> row.(karity + i))
      in
      match Hashtbl.find_opt groups key with
      | Some (count, lists) ->
          Array.iteri (fun i v -> lists.(i) <- v :: lists.(i)) vals;
          Hashtbl.replace groups key (count + 1, lists)
      | None ->
          order := key :: !order;
          Hashtbl.replace groups key (1, Array.map (fun v -> [ v ]) vals))
    rows;
  List.rev_map
    (fun key ->
      let count, lists = Hashtbl.find groups key in
      let next = ref 0 in
      let cells =
        List.map
          (fun p ->
            match p with
            | Ir.Col (a, c) ->
                let rec pos i = function
                  | [] -> fail "grouping column %s missing" c
                  | (ga, gc) :: rest ->
                      if gc = c && (a = None || ga = None || a = ga) then i
                      else pos (i + 1) rest
                in
                List.nth key (pos 0 group)
            | Ir.Count_star -> count
            | Ir.Agg (agg, _) -> (
                let vs = lists.(!next) in
                incr next;
                match agg with
                | Ir.Count -> List.length vs
                | Ir.Sum -> List.fold_left ( + ) 0 vs
                | Ir.Min -> List.fold_left min (List.hd vs) vs
                | Ir.Max -> List.fold_left max (List.hd vs) vs)
            | Ir.Star -> assert false)
          branch.Ir.projections
      in
      Array.of_list cells)
    !order

(* Aggregates without GROUP BY are computed over the concatenation of
   all UNION ALL branches; mixing aggregate and plain projections is
   rejected. *)
let run_aggregate ctx branches projections =
  Obs.Trace.with_span "exec.aggregate" @@ fun () ->
  (* per branch, project the columns the aggregates read *)
  let agg_cols =
    List.filter_map
      (function
        | Ir.Agg (_, target) -> Some target
        | Ir.Count_star | Ir.Star | Ir.Col _ -> None)
      projections
  in
  let rows =
    List.fold_left
      (fun acc branch ->
        run_branch ctx
          { branch with
            Ir.projections =
              List.map (fun t -> Ir.Col (fst t, snd t)) agg_cols }
          acc)
      [] branches
  in
  (* every aggregate is independent of row order *)
  let values = Array.make (List.length agg_cols) [] in
  List.iter
    (fun row ->
      Array.iteri (fun i _ -> values.(i) <- row.(i) :: values.(i)) values)
    rows;
  let next_value = ref 0 in
  let cells =
    List.map
      (fun p ->
        match p with
        | Ir.Count_star -> List.length rows
        | Ir.Agg (a, _) -> (
            let vs = values.(!next_value) in
            incr next_value;
            match a with
            | Ir.Count -> List.length vs
            | Ir.Sum -> List.fold_left ( + ) 0 vs
            | Ir.Min -> (
                match vs with
                | [] -> fail "MIN over an empty result"
                | v :: rest -> List.fold_left min v rest)
            | Ir.Max -> (
                match vs with
                | [] -> fail "MAX over an empty result"
                | v :: rest -> List.fold_left max v rest))
        | Ir.Star | Ir.Col _ -> assert false)
      projections
  in
  [ Array.of_list cells ]

let order_and_limit (first : Ir.branch) (plan : Ir.plan) rows =
  let rows =
    if plan.Ir.order_by = [] then rows
    else
      Obs.Trace.with_span "exec.sort" @@ fun () ->
      let names = projection_columns first in
      let position { Ir.key = _, col; descending } =
        let rec go i = function
          | [] -> fail "ORDER BY column %s is not in the projection" col
          | c :: rest -> if c = col then (i, descending) else go (i + 1) rest
        in
        go 0 names
      in
      let keys = List.map position plan.Ir.order_by in
      List.stable_sort
        (fun (a : int array) b ->
          let rec cmp = function
            | [] -> 0
            | (i, desc) :: rest ->
                let c = Int.compare a.(i) b.(i) in
                if c <> 0 then if desc then -c else c else cmp rest
          in
          cmp keys)
        rows
  in
  match plan.Ir.limit with
  | None -> rows
  | Some n ->
      let rec take acc n = function
        | row :: rest when n > 0 -> take (row :: acc) (n - 1) rest
        | _ -> List.rev acc
      in
      take [] n rows

(* ---------------- plan execution ---------------- *)

type output = { columns : string list; rows : int array list }

let reset_seen (plan : Ir.plan) =
  List.iter
    (fun b -> List.iter (fun (s : Ir.step) -> s.Ir.seen <- 0) b.Ir.steps)
    plan.Ir.branches

let run ctx (plan : Ir.plan) =
  match plan.Ir.branches with
  | [] -> { columns = []; rows = [] }
  | first :: _ when first.Ir.group_by <> [] ->
      if List.length plan.Ir.branches > 1 then
        fail "GROUP BY cannot be combined with UNION ALL";
      let rows = run_group_by ctx first in
      { columns = projection_columns first;
        rows = order_and_limit first plan rows }
  | first :: _ ->
      let aggs = List.filter is_aggregate_projection first.Ir.projections in
      if aggs <> [] then begin
        if List.length aggs <> List.length first.Ir.projections then
          fail "cannot mix aggregate and plain projections";
        if plan.Ir.order_by <> [] then
          fail "ORDER BY does not apply to an aggregate query";
        { columns = projection_columns first;
          rows = run_aggregate ctx plan.Ir.branches first.Ir.projections }
      end
      else begin
        let rows =
          List.fold_left
            (fun acc branch -> run_branch ctx branch acc)
            [] plan.Ir.branches
        in
        { columns = projection_columns first;
          rows = order_and_limit first plan (List.rev rows) }
      end

(* Measure an execution: wall time and the process-global physical-I/O
   delta (single-threaded execution means the delta is attributable to
   this run). *)
let measured f =
  let c0 = Obs.Counters.snapshot () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let d = Obs.Counters.diff (Obs.Counters.snapshot ()) c0 in
  (r, ms, d.Obs.Counters.reads + d.Obs.Counters.writes)
