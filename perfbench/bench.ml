(* The end-to-end benchmark:

     bench --workload NAME --seed N --seconds S --trace 0|1

   generates the workload's tables from the seed, starts real pb_server
   processes (and a pb_router over two shards for router_rw), drives the
   seeded closed-loop request mix through them for S seconds, checks
   every reply, and prints the results. With --trace 0 the last line
   carries the end-to-end metrics; with --trace 1 it carries the
   per-layer metrics: /metrics deltas of the served run plus a traced
   in-process replay of the same requests. Run it from the repository
   root after building (perfbench/run.sh does both). *)

module Client = Pb_net.Client
module Protocol = Pb_net.Protocol

let setup_repetitions = 5
let request_deadline = 10.0

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Mix.names);
      ("--seed", Arg.Set_int seed, "N seed of all data and query constants");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Mix.names) then raise (Arg.Bad ("unknown workload " ^ !workload));
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1 }

(* ---- serving processes ---- *)

type served = { front : Procs.proc; procs : Procs.proc list }

let start ~log (w : Mix.t) specs =
  let tables = List.concat_map (fun s -> [ "--table"; s ]) specs in
  if w.router then
    let shards =
      List.init 2 (fun i ->
          Procs.spawn ~log ~role:(Printf.sprintf "shard %d" i) "pb_server"
            (tables @ [ "--shard"; Printf.sprintf "%d/2" i ]))
    in
    let front =
      Procs.spawn ~log ~role:"router" "pb_router"
        (List.concat_map (fun (p : Procs.proc) -> [ "--shard"; Printf.sprintf "127.0.0.1:%d" p.port ]) shards)
    in
    { front; procs = front :: shards }
  else
    let p = Procs.spawn ~log ~role:"server" "pb_server" tables in
    { front = p; procs = [ p ] }

let connect (w : Mix.t) port =
  let c = Client.connect ~port () in
  Option.iter
    (fun s ->
      let r = Client.request c ("\\strategy " ^ s) in
      if r.status <> Protocol.Ok then failwith ("\\strategy failed: " ^ r.body))
    w.strategy;
  c

(* Warm-up: a count over every table builds the columnar images, one
   request of each SQL kind fills the plan cache, and a tiny fixed PaQL
   query starts the solver path; all before timing. *)
let warm_up (w : Mix.t) port =
  let c = connect w port in
  let send text =
    let r = Client.request ~deadline:request_deadline c text in
    if r.status <> Protocol.Ok then failwith ("warm-up request failed: " ^ r.body)
  in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      List.iter (fun (name, _) -> send ("SELECT COUNT(*) FROM " ^ name)) w.tables;
      List.iter
        (fun (k, _) ->
          if k = Mix.Paql then
            send
              "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.id <= 20 SUCH THAT COUNT(*) = 2 \
               MAXIMIZE SUM(P.protein)"
          else
            match Array.find_opt (fun (r : Mix.req) -> r.kind = k) w.pool with
            | Some r -> send r.text
            | None -> ())
        w.weights)

let stop_all s = List.for_all Fun.id (List.map Procs.stop s.procs)

(* ---- the closed loop ---- *)

type sample = {
  idx : int;  (** pool index *)
  sent : float;
  received : float;
  status : Protocol.status option;  (** [None]: the connection dropped *)
  body : string;
}

(* One connection sends the seeded sequence, waiting for every reply,
   until [until]. *)
let drive (w : Mix.t) ~seed ~port ~until =
  let next = Mix.sequence ~seed w in
  let c = connect w port in
  let rec go acc =
    if Util.now () >= until then List.rev acc
    else
      let idx = next () in
      let sent = Util.now () in
      match Client.request ~deadline:request_deadline c w.pool.(idx).text with
      | r -> go ({ idx; sent; received = Util.now (); status = Some r.status; body = r.body } :: acc)
      | exception Client.Net_error msg ->
          List.rev ({ idx; sent; received = Util.now (); status = None; body = msg } :: acc)
  in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> go [])

(* ---- checks ---- *)

(* Every sample with whether its reply is right. References are built
   one distinct request at a time, so only one query's compiled
   coefficients are alive at once. *)
let check_samples (w : Mix.t) db samples =
  let repl = Pb_shell.Repl.create db in
  let by_idx = Hashtbl.create 256 in
  List.iter
    (fun s -> Hashtbl.replace by_idx s.idx (s :: Option.value (Hashtbl.find_opt by_idx s.idx) ~default:[]))
    samples;
  let idxs = List.sort compare (Hashtbl.fold (fun i _ acc -> i :: acc) by_idx []) in
  List.concat_map
    (fun idx ->
      let r = w.pool.(idx) in
      let expect =
        match r.kind with
        | Mix.Paql -> Check.package_expect ~db ~exact:(w.strategy = Some "ilp") r.text
        | Mix.Insert | Mix.Update -> Check.Text "1 row(s) affected"
        | _ -> Check.Text (Pb_shell.Repl.handle repl r.text).output
      in
      List.map
        (fun s -> (s, s.status = Some Protocol.Ok && Check.check expect s.body))
        (Hashtbl.find by_idx idx))
    idxs

(* ---- one measured pass ---- *)

type pass = {
  samples : sample list;
  checked : (sample * bool) list;  (** each sample with whether its reply is right *)
  window : float;  (** seconds from the start to the last reply *)
  cpu_s : float;  (** server CPU seconds over the window *)
  rss_mb : float;  (** peak RSS summed over the serving processes *)
  before : (Procs.proc * (string * float) list) list;  (** /metrics of each process *)
  after : (Procs.proc * (string * float) list) list;
}

let measure args (w : Mix.t) s db =
  let scrape () = if args.trace then List.map (fun p -> (p, Procs.metrics p)) s.procs else [] in
  let cpu () = List.fold_left (fun a p -> a +. Procs.cpu_seconds p) 0.0 s.procs in
  let before = scrape () in
  let cpu_before = cpu () in
  let start = Util.now () in
  let samples = drive w ~seed:args.seed ~port:s.front.port ~until:(start +. args.seconds) in
  let window = List.fold_left (fun a x -> Float.max a x.received) start samples -. start in
  let cpu_s = cpu () -. cpu_before in
  let rss_mb = List.fold_left (fun a (p : Procs.proc) -> a +. Procs.peak_rss_mb p.pid) 0.0 s.procs in
  let after = scrape () in
  { samples; checked = check_samples w db samples; window; cpu_s; rss_mb; before; after }

(* The traced replay, with an in-process router over the live shards
   for router_rw. *)
let replay args (w : Mix.t) s db =
  let router =
    if w.router then
      (* In shard order: the array index is the shard id. *)
      let shards = List.filter (fun p -> p != s.front) s.procs in
      Some
        (Pb_shard.Router.create
           ~shards:(Array.of_list (List.map (fun (p : Procs.proc) -> ("127.0.0.1", p.port)) shards))
           (Pb_sql.Database.create ()))
    else None
  in
  let strategy =
    match w.strategy with
    | Some "ilp" -> Pb_core.Engine.Ilp
    | _ -> Pb_core.Engine.Sketch_refine Pb_core.Sketch_refine.default_params
  in
  let next = Mix.sequence ~seed:args.seed w in
  Fun.protect
    ~finally:(fun () -> Option.iter Pb_shard.Router.close router)
    (fun () ->
      Replay.run ~budget:(args.seconds /. 2.0) ~min_requests:10
        { Replay.db; router; strategy; deadline = request_deadline }
        (fun () -> w.pool.(next ())))

(* ---- metrics: (name, value, unit) ---- *)

let latency_ms s = (s.received -. s.sent) *. 1000.0

let of_kind (w : Mix.t) p samples = List.filter (fun s -> p w.pool.(s.idx).Mix.kind) samples

let end_to_end ~setups p =
  let n = float_of_int (List.length p.samples) in
  let good = List.length (List.filter snd p.checked) in
  let lat = Util.sorted_of_list (List.map latency_ms p.samples) in
  [
    ("setup_s", Util.median setups, "s");
    ("throughput_rps", float_of_int good /. p.window, "1/s");
    ("latency_p50_ms", Util.quantile lat 0.5, "ms");
    ("latency_p90_ms", Util.quantile lat 0.9, "ms");
    ("server_rss_mb", p.rss_mb, "MB");
    ("server_cpu_ms_per_req", p.cpu_s *. 1000.0 /. n, "ms");
  ]

(* Reported on every pass but not bounded: each is 0 on some workload. *)
let quality (w : Mix.t) p =
  let n = float_of_int (List.length p.samples) in
  let failed = List.length (List.filter (fun (_, ok) -> not ok) p.checked) in
  let writes = of_kind w Mix.is_write p.samples in
  let paql = of_kind w (( = ) Mix.Paql) p.samples in
  let paql_good =
    List.filter_map (fun (s, ok) -> if ok && w.pool.(s.idx).kind = Mix.Paql then Some (s, Check.parse_paql s.body) else None) p.checked
  in
  let by_query = Hashtbl.create 16 in
  List.iter
    (fun (s, (r : Check.paql_reply)) ->
      Option.iter (fun o -> Hashtbl.replace by_query s.idx (float_of_string o)) r.objective)
    paql_good;
  [
    ("failed_share", float_of_int failed /. n, "share");
    ("write_p50_ms", (if writes = [] then 0.0 else Util.median (List.map latency_ms writes)), "ms");
    ("objective_mean", Util.mean (Hashtbl.fold (fun _ v acc -> v :: acc) by_query []), "objective");
    ( "optimal_share",
      Util.ratio
        (float_of_int (List.length (List.filter (fun (_, (r : Check.paql_reply)) -> r.proven) paql_good)))
        (float_of_int (List.length paql)),
      "share" );
  ]

let wire_bytes (w : Mix.t) s =
  let framed p = String.length p + String.length (string_of_int (String.length p)) + 1 in
  framed
    (Protocol.encode_request
       { text = w.pool.(s.idx).text; deadline = Some request_deadline; trace = None; data = false })
  + framed
      (Protocol.encode_response
         { status = Option.value s.status ~default:Protocol.Internal; body = s.body })

let series_delta before after name =
  let get l = List.fold_left (fun acc (k, v) -> if k = name then acc +. v else acc) 0.0 l in
  get after -. get before

(* Replay times are self time per replayed request, so they add up to
   [replay.total_ms] with [replay.unattributed_ms]. *)
let layer_metrics (w : Mix.t) s p (r : Replay.result) =
  let n = float_of_int (List.length p.samples) in
  let delta procs name =
    List.fold_left (fun a (q, after) -> a +. series_delta (List.assq q p.before) after name) 0.0
      (List.filter (fun (q, _) -> List.memq q procs) p.after)
  in
  let d = delta s.procs and front = delta [ s.front ] in
  (* The processes holding data: the shards behind a router. *)
  let data_nodes = delta (if w.router then List.filter (fun q -> q != s.front) s.procs else s.procs) in
  let request_seconds suffix =
    List.fold_left
      (fun a k -> a +. front (Printf.sprintf "pb_net_%s_request_seconds_%s" k suffix))
      0.0 [ "sql"; "paql"; "command" ]
  in
  let server_ms = 1000.0 *. Util.ratio (request_seconds "sum") (request_seconds "count") in
  let l = r.ledger in
  let per_req = float_of_int r.requests in
  let self name = Replay.get l.self name /. per_req in
  let count name = Replay.get l.counts name in
  let attributed = Hashtbl.fold (fun _ v a -> a +. !v) l.self 0.0 in
  let fanout i =
    let h = Printf.sprintf "pb_shard_%d_fanout_seconds_" i in
    1000.0 *. Util.ratio (d (h ^ "sum")) (d (h ^ "count"))
  in
  let paql_n = float_of_int (List.length (of_kind w (( = ) Mix.Paql) p.samples)) in
  let writes = float_of_int (List.length (of_kind w Mix.is_write p.samples)) in
  let gc f = float_of_int (f r.gc_after - f r.gc_before) /. per_req in
  let us name = self name *. 1e6 and ms name = self name *. 1e3 in
  [
    ("net.decode_us", us "net.decode", "us");
    ("net.encode_us", us "net.encode", "us");
    ("net.bytes_per_req", Util.mean (List.map (fun s -> float_of_int (wire_bytes w s)) p.samples), "bytes");
    ("net.server_ms", server_ms, "ms");
    ("net.outside_ms", Util.mean (List.map latency_ms p.samples) -. server_ms, "ms");
    ("net.wakeups_per_req", front "pb_net_eventloop_wakeups_total" /. n, "count");
    ("net.busy_total", d "pb_net_busy_rejections_total", "count");
    ("sql.parse_us", us "sql.parse", "us");
    ( "sql.plan_cache_hit_ratio",
      Util.ratio (d "pb_sql_plan_cache_hits_total")
        (d "pb_sql_plan_cache_hits_total" +. d "pb_sql_plan_cache_misses_total"),
      "share" );
  ]
  @ List.map
      (fun k -> ("sql.exec_ms." ^ k, ms ("sql.exec." ^ k), "ms"))
      [ "point"; "range"; "count"; "group"; "write" ]
  @ [
      ( "sql.rows_scanned_per_returned",
        Util.ratio (d "pb_sql_rows_scanned_total") (d "pb_sql_rows_returned_total"),
        "ratio" );
      ("store.image_build_ms", ms "store.image_build", "ms");
      ("store.images_per_write", Util.ratio (data_nodes "pb_store_tables_built_total") writes, "count");
      ( "store.resident_mb",
        List.fold_left (fun a (_, m) -> a +. series_delta [] m "pb_store_bytes_resident") 0.0 p.after
        /. 1048576.0,
        "MB" );
      ( "store.chunks_per_scan",
        Util.ratio (d "pb_store_chunks_scanned_total")
          (d "pb_store_selects_total" +. d "pb_store_scans_total"),
        "count" );
      ("paql.parse_us", us "paql.parse", "us");
      ("core.coeffs_ms", ms "core.coeffs", "ms");
      ("core.translate_ms", ms "core.translate", "ms");
      ("core.partition_ms", ms "core.partition", "ms");
      ("core.sketch_ms", ms "core.sketch", "ms");
      ("core.refine_ms", ms "core.refine", "ms");
      ("core.sketch_refine_ms", ms "core.sketch_refine", "ms");
      ("core.refine_steps", Util.ratio (count "refine_steps") (count "searches"), "count");
      ("core.engine_ms", ms "core.engine", "ms");
      ("lp.milp_ms", ms "lp.milp", "ms");
      ("lp.bb_nodes_replay", Util.ratio (count "bb_nodes") (count "milp_solves"), "count");
      ("lp.bb_nodes", Util.ratio (d "pb_milp_nodes_total") paql_n, "count");
      ("lp.pivots", Util.ratio (d "pb_lp_pivots_total") paql_n, "count");
      ("lp.pivots_per_node", Util.ratio (d "pb_lp_pivots_total") (d "pb_milp_nodes_total"), "count");
      ("shard.handle_ms", ms "shard.handle", "ms");
      ("shard.plan_us", us "shard.plan", "us");
      ( "shard.merge_share",
        Util.ratio (d "pb_router_merged_selects_total")
          (d "pb_router_merged_selects_total" +. d "pb_router_scanpull_total"),
        "share" );
      ("shard.fanout_ms.0", fanout 0, "ms");
      ("shard.fanout_ms.1", fanout 1, "ms");
      ("shard.requests_per_stmt", d "pb_router_shard_requests_total" /. n, "count");
      ("shard.errors_total", d "pb_router_shard_errors_total", "count");
      ("gc.minor_per_req", gc (fun g -> g.Gc.minor_collections), "count");
      ("gc.major_per_req", gc (fun g -> g.Gc.major_collections), "count");
      ("gc.top_heap_mb", float_of_int r.gc_after.top_heap_words *. 8.0 /. 1048576.0, "MB");
      ("replay.total_ms", r.traced_s /. per_req *. 1e3, "ms");
      ("replay.unattributed_ms", (r.traced_s -. attributed) /. per_req *. 1e3, "ms");
      ("replay.requests", per_req, "count");
      ("trace.overhead_share", (r.traced_s -. r.untraced_s) /. r.untraced_s, "share");
    ]

(* ---- provenance and output ---- *)

let command_output cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | ic -> (
      let line = try Some (input_line ic) with End_of_file -> None in
      match (Unix.close_process_in ic, line) with Unix.WEXITED 0, Some l -> Some l | _ -> None)
  | exception Unix.Unix_error _ -> None

(* Digest of the program's sources: identifies the code measured when
   the checkout is not a git repository. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" || f = "dune" then [ p ]
           else [])
  in
  List.concat_map files [ "lib"; "bin" ]
  |> List.map (fun p -> p ^ Digest.to_hex (Digest.file p))
  |> String.concat "" |> Digest.string |> Digest.to_hex

let summary values =
  let a = Util.sorted_of_list values in
  Util.json_obj
    [
      ("n", string_of_int (Array.length a));
      ("q1", Util.json_float (Util.quantile a 0.25));
      ("median", Util.json_float (Util.quantile a 0.5));
      ("q3", Util.json_float (Util.quantile a 0.75));
      ("p90", Util.json_float (Util.quantile a 0.9));
    ]

let metrics_json metrics =
  Util.json_obj
    (List.map
       (fun (name, v, unit) ->
         (name, Util.json_obj [ ("value", Util.json_float v); ("unit", Util.json_string unit) ]))
       metrics)

(* What was run and how it went, beyond the result line. *)
let record args (w : Mix.t) ~setups p all metrics =
  let by_kind =
    List.sort_uniq compare (List.map (fun (k, _) -> Mix.kind_name k) w.weights)
    |> List.filter_map (fun name ->
           match of_kind w (fun k -> Mix.kind_name k = name) p.samples with
           | [] -> None
           | l -> Some (name, summary (List.map latency_ms l)))
  in
  Util.json_obj
    ([
       ("command", Util.json_string (String.concat " " (Array.to_list Sys.argv)));
       ("workload", Util.json_string w.name);
       ("seed", string_of_int args.seed);
       ("seconds", Util.json_float args.seconds);
       ("trace", string_of_bool args.trace);
       ("nproc", string_of_int (Domain.recommended_domain_count ()));
       ( "git_revision",
         Util.json_string (Option.value (command_output "git rev-parse HEAD") ~default:"unknown") );
       ("source_digest", Util.json_string (source_digest ()));
       ("setup_repetitions", string_of_int setup_repetitions);
       ("connections", "1");
       ("requests", string_of_int (List.length p.samples));
       ("setup_s", summary setups);
       ("latency_ms", summary (List.map latency_ms p.samples));
       ("latency_ms_by_kind", Util.json_obj by_kind);
     ]
    @ List.map (fun (k, v, _) -> (k, Util.json_float v)) all
    @ [ ("metrics", metrics_json metrics) ])

let run args =
  let w = Mix.make ~seed:args.seed args.workload in
  let dir = Printf.sprintf ".perfbench/%s-%d-%d" args.workload args.seed (Unix.getpid ()) in
  Util.mkdir_p dir;
  let log = Filename.concat dir "servers.log" in
  let db, specs = Data.materialize ~dir w.tables in
  let selftest_ok = Check.self_test () in
  Gc.compact ();
  (* Set up [setup_repetitions] times; the last set-up serves the pass. *)
  let rec set_up k setups exits_ok =
    let s, secs =
      Util.timed (fun () ->
          let s = start ~log w specs in
          warm_up w s.front.port;
          s)
    in
    if k = 1 then (s, secs :: setups, exits_ok) else set_up (k - 1) (secs :: setups) (stop_all s && exits_ok)
  in
  let s, setups, exits_ok = set_up setup_repetitions [] true in
  let p = measure args w s db in
  let r = if args.trace then Some (replay args w s db) else None in
  let exits_ok = stop_all s && exits_ok in
  let wrong = List.exists (fun (s, ok) -> s.status = Some Protocol.Ok && not ok) p.checked in
  List.iteri
    (fun i (s, _) ->
      if i < 3 then
        Printf.eprintf "bench: %s reply to %S:\n%s\n"
          (match s.status with Some st -> Protocol.status_to_string st | None -> "dropped")
          w.pool.(s.idx).text s.body)
    (List.filter (fun (_, ok) -> not ok) p.checked);
  if not selftest_ok then prerr_endline "bench: the reply checks failed their self-test";
  if not exits_ok then prerr_endline "bench: a server did not exit 0 on SIGTERM";
  let e2e = end_to_end ~setups p and quality = quality w p in
  let layers = match r with Some r -> layer_metrics w s p r @ quality | None -> [] in
  let metrics = if args.trace then layers else e2e in
  let record = record args w ~setups p (e2e @ quality) metrics in
  prerr_endline record;
  Util.mkdir_p ".perfbench/results";
  Util.write_file
    (Printf.sprintf ".perfbench/results/%s-seed%d-trace%d.json" w.name args.seed
       (if args.trace then 1 else 0))
    (record ^ "\n");
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-32s %14.4f %s\n" name v unit)
    (e2e @ if args.trace then layers else quality);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  print_endline
    (Util.json_obj
       [
         ("correct", string_of_bool ((not wrong) && selftest_ok && exits_ok));
         ("attempted", string_of_int (List.length p.samples));
         ("failed", string_of_int (List.length (List.filter (fun (_, ok) -> not ok) p.checked)));
         ("metrics", metrics_json metrics);
       ])

let () =
  match parse_args () with
  | exception Arg.Bad msg ->
      prerr_endline msg;
      exit 2
  | args -> (
      try run args
      with e ->
        Procs.kill_all ();
        Printf.eprintf "bench: %s\n" (Printexc.to_string e);
        exit 1)
