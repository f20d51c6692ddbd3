(* Server processes started by the benchmark.

   Each server is this executable re-run in server mode
   ([--serve ROLE]): it regenerates its inputs from the workload name
   and seed, builds its own stack, binds an ephemeral port and prints
   it on its standard output (a pipe to the parent) before serving.
   The exec gives every server a heap of its own, so its memory and
   garbage collection are those of a server and not of the load
   generator. The parent knows every server's pid and port, and stops
   each with SIGTERM (graceful shutdown) and waits for it. *)

type t = { pid : int; port : int; name : string }

external nth_cpu : int -> int = "perfbench_nth_cpu"
external pin : int -> bool = "perfbench_pin"

(* CPU placement: the generator runs on the first CPU it may use and
   every server on the second, so the scheduler never moves a process
   between CPUs (on a two-vCPU virtual machine such moves were the
   largest source of run-to-run noise) and the generator never takes a
   server's CPU. With one CPU nothing is placed. *)
let server_cpu = ref (-1)

let place_generator () =
  let c0 = nth_cpu 0 and c1 = nth_cpu 1 in
  if c0 >= 0 && c1 >= 0 && pin c0 then server_cpu := c1

(* Server mode: take the CPU the generator chose. *)
let place_server cpu = if cpu >= 0 then ignore (pin cpu)

let live : t list ref = ref []

(* "--workload NAME --seed N", passed on to every server. *)
let server_args : string list ref = ref []

(* Start servers [(name, role, peer ports)] and wait until each listens. *)
let spawn_many roles =
  flush stdout;
  flush stderr;
  let started =
    List.map
      (fun (name, role, peers) ->
        let r, w = Unix.pipe ~cloexec:true () in
        let argv =
          Array.of_list
            ([ Sys.executable_name; "--serve"; role; "--peers";
               String.concat "," (List.map string_of_int peers);
               "--cpu"; string_of_int !server_cpu ]
            @ !server_args)
        in
        match Unix.fork () with
        | 0 -> (
            try
              Unix.dup2 w Unix.stdout;
              Sys.set_signal Sys.sigint Sys.Signal_ignore;
              Unix.execv Sys.executable_name argv
            with _ -> Unix._exit 127)
        | pid ->
            Unix.close w;
            (name, pid, r))
      roles
  in
  List.map
    (fun (name, pid, r) ->
      let ic = Unix.in_channel_of_descr r in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      match int_of_string_opt line with
      | Some port ->
          let p = { pid; port; name } in
          live := p :: !live;
          p
      | None ->
          ignore (Unix.waitpid [] pid);
          failwith (Printf.sprintf "server %s did not start" name))
    started

let spawn name role peers = List.hd (spawn_many [ (name, role, peers) ])

(* Server mode: announce [port] to the parent, then send any later
   output to standard error. *)
let report port =
  print_endline (string_of_int port);
  Unix.dup2 Unix.stderr Unix.stdout

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb p =
  let kb =
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
            Scanf.sscanf (String.trim v) "%d kB" (fun k -> k)
        | _ -> acc)
      0
      (Util.read_lines (Printf.sprintf "/proc/%d/status" p.pid))
  in
  Util.fi kb /. 1024.

let stop p =
  (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Util.now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ ->
        if Util.now () > deadline then begin
          (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] p.pid)
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  live := List.filter (fun q -> q.pid <> p.pid) !live

let stop_all () = List.iter stop !live

(* Every child is stopped and reaped however the benchmark exits. *)
let () = at_exit stop_all

(* A dispatcher serving [sh] on an ephemeral port, run inside a child:
   rikitd's defaults, apart from the port, the group-commit window and
   the primary a replica follows. *)
let serve_dispatcher ?(group_commit = 0.) ?replica_of sh report =
  let config =
    { Server.Dispatcher.default_config with port = 0; group_commit; replica_of }
  in
  let disp = Server.Dispatcher.create ~config sh in
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> Server.Dispatcher.stop disp));
  report (Server.Dispatcher.port disp);
  Server.Dispatcher.serve disp

(* A router with rikitd's defaults on an ephemeral port. *)
let serve_router ~map report =
  let config = { Server.Router.default_config with port = 0 } in
  let r = Server.Router.create config ~map in
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> Server.Router.stop r));
  report (Server.Router.port r);
  Server.Router.serve r
