(* Prometheus text exposition (the server's [Metrics] op) parsed into a
   table of "name{labels}" -> value, and deltas between two scrapes. *)

type t = (string, float) Hashtbl.t

let parse doc : t =
  let h = Hashtbl.create 256 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | Some i -> (
            let key = String.sub line 0 i in
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            match float_of_string_opt v with
            | Some f -> Hashtbl.replace h key f
            | None -> ())
        | None -> ())
    (String.split_on_char '\n' doc);
  h

let get (t : t) key = Option.value ~default:0. (Hashtbl.find_opt t key)

(* [delta later earlier key] *)
let delta a b key = get a key -. get b key

let op_sum op = Printf.sprintf "rikit_op_latency_us_sum{op=%S}" op
let op_count op = Printf.sprintf "rikit_op_latency_us_count{op=%S}" op

(* Sum of a family over all label sets, e.g. every shard's rpc count. *)
let family_sum (t : t) name =
  Hashtbl.fold
    (fun k v acc ->
      if String.length k > String.length name
         && String.sub k 0 (String.length name + 1) = name ^ "{"
      then acc +. v
      else acc)
    t 0.
