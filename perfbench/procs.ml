(* The served side: spawning pb_server / pb_router, reading their
   ports, sampling /proc and /metrics, and shutting them down. *)

type proc = {
  pid : int;
  out : in_channel;  (** the process's stdout, after its ready line *)
  port : int;
  metrics_port : int;
}

let exe name = Filename.concat (Sys.getcwd ()) ("_build/default/bin/" ^ name ^ ".exe")

(* The port of the address after "on", as in "listening on HOST:PORT"
   and "metrics on http://HOST:PORT". *)
let rec port_after_on = function
  | "on" :: addr :: _ -> (
      match String.rindex_opt addr ':' with
      | Some i -> int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1))
      | None -> None)
  | _ :: rest -> port_after_on rest
  | [] -> None

(* Every process started and not yet stopped; [kill_all] reaps them
   after a failure. *)
let live : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let kill_all () = List.iter reap !live

(* Start [name] on ephemeral ports and wait for its ready line. *)
let spawn ~log ~role name args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ O_WRONLY; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644 in
  let argv = Array.of_list (exe name :: "--port" :: "0" :: "--metrics-port" :: "0" :: args) in
  let pid = Unix.create_process argv.(0) argv Unix.stdin out_w err in
  live := pid :: !live;
  Unix.close out_w;
  Unix.close err;
  let out = Unix.in_channel_of_descr out_r in
  let rec read port metrics =
    match input_line out with
    | exception End_of_file -> (None, None)
    | line -> (
        let words = Util.split_words line in
        let port, metrics =
          match port_after_on words with
          | Some p when List.mem "listening" words -> (Some p, metrics)
          | Some p when List.mem "metrics" words -> (port, Some p)
          | _ -> (port, metrics)
        in
        if List.mem "ready" words then (port, metrics) else read port metrics)
  in
  match read None None with
  | Some port, Some metrics_port -> { pid; out; port; metrics_port }
  | _ ->
      close_in_noerr out;
      reap pid;
      failwith (Printf.sprintf "%s did not report ready with its ports (see %s)" role log)

(* Fields of /proc/<pid>/stat after the parenthesised command name. *)
let cpu_seconds p =
  let s = Util.read_file (Printf.sprintf "/proc/%d/stat" p.pid) in
  let i = String.rindex s ')' in
  let f = Array.of_list (Util.split_words (String.sub s (i + 2) (String.length s - i - 2))) in
  (* utime and stime, fields 14 and 15 of the full line, in clock ticks
     of 1/100 s. *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

let peak_rss_mb pid =
  let s = Util.read_file (Printf.sprintf "/proc/%d/status" pid) in
  String.split_on_char '\n' s
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:"VmHWM:" l then
           match Util.split_words l with _ :: kb :: _ -> Some (float_of_string kb /. 1024.0) | _ -> None
         else None)
  |> Option.value ~default:0.0

(* GET [path] from the process's HTTP endpoint; the body. *)
let http_get p path =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, p.metrics_port));
      Pb_net.Client.write_all fd
        (Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n" path);
      let buf = Buffer.create 8192 and chunk = Bytes.create 8192 in
      let rec loop () =
        match Unix.read fd chunk 0 8192 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            loop ()
      in
      loop ();
      let s = Buffer.contents buf in
      let rec find i =
        if i + 4 > String.length s then String.length s
        else if String.sub s i 4 = "\r\n\r\n" then i + 4
        else find (i + 1)
      in
      let i = find 0 in
      String.sub s i (String.length s - i))

(* Prometheus text exposition: series name (labels included) -> value. *)
let metrics p =
  http_get p "/metrics" |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         if l = "" || l.[0] = '#' then None
         else
           match String.rindex_opt l ' ' with
           | Some i -> (
               match float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)) with
               | Some v -> Some (String.sub l 0 i, v)
               | None -> None)
           | None -> None)

(* SIGTERM, then wait: the servers drain and must exit 0. *)
let stop p =
  (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec wait () =
    match Unix.waitpid [] p.pid with
    | _, status -> status
    | exception Unix.Unix_error (EINTR, _, _) -> wait ()
  in
  let status = wait () in
  close_in_noerr p.out;
  live := List.filter (( <> ) p.pid) !live;
  status = Unix.WEXITED 0
