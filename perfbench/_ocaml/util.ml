(* Clock, statistics and output helpers shared by the benchmark. *)

let now = Unix.gettimeofday

let log fmt = Printf.ksprintf (fun s -> prerr_string s; prerr_newline ()) fmt

(* Nearest-rank percentile of an unsorted sample; [nan] when empty. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median xs = percentile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

(* Samples a 99th percentile needs: with fewer it is the maximum. *)
let p99_min = 100

(* The mean of the middle half of a sample: a short spell of the
   machine, fast or slow, lands in the discarded quarters. *)
let middle_mean xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let keep = max 1 (n / 2) in
    let lo = (n - keep) / 2 in
    Array.fold_left ( +. ) 0. (Array.sub s lo keep) /. float_of_int keep
  end

let ratio a b = if b = 0. then 0. else a /. b

let fi = float_of_int

(* A growable float sample. *)
module Sample = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* Lines of a file, /proc files included (their size reads as 0). *)
let read_lines path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* JSON number: finite values with all their digits, 0 otherwise. *)
let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
