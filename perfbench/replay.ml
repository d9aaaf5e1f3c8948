(* The traced replay: the run's seeded requests executed in-process
   against the benchmark's own copy of the data, each call into a
   layer's public function wrapped in a span the benchmark owns. A
   span's self time is its duration minus its children's, so the layer
   self times plus the time no span covers add up to the replay total. *)

module Protocol = Pb_net.Protocol
module Engine = Pb_core.Engine

type ledger = {
  mutable on : bool;
  self : (string, float ref) Hashtbl.t;  (** seconds of self time *)
  counts : (string, float ref) Hashtbl.t;  (** work counters *)
  mutable stack : float ref list;  (** children's time of each open span *)
}

let ledger () = { on = false; self = Hashtbl.create 32; counts = Hashtbl.create 8; stack = [] }

let bump tbl name v =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add tbl name (ref v)

let get tbl name = match Hashtbl.find_opt tbl name with Some r -> !r | None -> 0.0

(* [seconds] of [name]'s self time found inside the innermost open span
   (a phase the callee reports itself): it moves out of that span's self. *)
let charge l name seconds =
  if l.on then begin
    bump l.self name seconds;
    match l.stack with parent :: _ -> parent := !parent +. seconds | [] -> ()
  end

let span l name f =
  if not l.on then f ()
  else begin
    let children = ref 0.0 in
    l.stack <- children :: l.stack;
    let t0 = Util.now () in
    let finish () =
      let d = Util.now () -. t0 in
      l.stack <- List.tl l.stack;
      (match l.stack with parent :: _ -> parent := !parent +. d | [] -> ());
      bump l.self name (d -. !children)
    in
    Fun.protect ~finally:finish f
  end

let count l name v = if l.on then bump l.counts name v

type env = {
  db : Pb_sql.Database.t;  (** the benchmark's copy of the data *)
  router : Pb_shard.Router.t option;  (** in-process router over the live shards *)
  strategy : Engine.strategy;
  deadline : float;
}

let render_sql results =
  String.concat ""
    (List.map
       (function
         | Pb_sql.Executor.Rows rel -> Pb_relation.Relation.to_table ~max_rows:40 rel
         | Pb_sql.Executor.Affected n -> Printf.sprintf "%d row(s) affected\n" n
         | Pb_sql.Executor.Created -> "ok\n")
       results)
  |> String.trim

let rebuild_image l env =
  span l "store.image_build" (fun () ->
      ignore
        (Pb_sql.Database.columnar env.db "recipes"
           (Pb_sql.Database.find_exn env.db "recipes")))

(* The single-node SQL path: parse, execute, and after a write rebuild
   the columnar image the next read would otherwise build. *)
let run_sql l env (req : Mix.req) =
  let stmts = span l "sql.parse" (fun () -> Pb_sql.Parser.parse_script req.text) in
  let results =
    List.map
      (fun stmt ->
        span l ("sql.exec." ^ Mix.kind_name req.kind) (fun () -> Pb_sql.Executor.execute env.db stmt))
      stmts
  in
  if Mix.is_write req.kind then rebuild_image l env;
  (stmts, render_sql results)

let run_paql l env text =
  let gov () = Pb_util.Gov.create ~deadline_in:env.deadline () in
  let query = span l "paql.parse" (fun () -> Pb_paql.Parser.parse text) in
  let c = span l "core.coeffs" (fun () -> Pb_core.Coeffs.make env.db query) in
  let r = span l "core.engine" (fun () -> Engine.run_coeffs ~gov:(gov ()) ~strategy:env.strategy env.db c) in
  (* The same model again, through the layers the engine calls. *)
  (match env.strategy with
  | Engine.Sketch_refine params ->
      let o =
        span l "core.sketch_refine" (fun () ->
            let o =
              Pb_core.Sketch_refine.search ~params ~pool:(Pb_par.Pool.get_default ()) ~gov:(gov ()) c
            in
            charge l "core.partition" o.partition_seconds;
            charge l "core.sketch" o.sketch_seconds;
            charge l "core.refine" o.refine_seconds;
            o)
      in
      count l "refine_steps" (float_of_int o.refine_steps);
      count l "searches" 1.0
  | _ ->
      let t = span l "core.translate" (fun () -> Pb_core.Translate.build c) in
      let sol = span l "lp.milp" (fun () -> Pb_lp.Milp.solve ~gov:(gov ()) t.model) in
      count l "bb_nodes" (float_of_int sol.nodes);
      count l "milp_solves" 1.0);
  (match r.package with Some p -> Pb_paql.Package.to_string p | None -> "no valid package\n")
  ^ match r.objective with Some v -> Printf.sprintf "objective: %g\n" v | None -> ""

let run_routed l env router (req : Mix.req) =
  (match req.kind with
  | Mix.Paql -> ()
  | _ ->
      (* The router's merge decision, then the single-node execution the
         router's answer must equal. *)
      let stmts, _ = run_sql l env req in
      List.iter
        (function
          | Pb_sql.Ast.Select_stmt s ->
              ignore (span l "shard.plan" (fun () -> Pb_shard.Merge.plan ~table:"recipes" s))
          | _ -> ())
        stmts);
  let gov = Pb_util.Gov.create ~deadline_in:env.deadline () in
  (span l "shard.handle" (fun () -> Pb_shard.Router.handle router ~gov req.text)).output

let run_one l env (req : Mix.req) =
  let frame =
    Protocol.encode_request { text = req.text; deadline = Some env.deadline; trace = None; data = false }
  in
  let text =
    match span l "net.decode" (fun () -> Protocol.decode_client_frame frame) with
    | Ok (Protocol.Req r) -> r.text
    | _ -> failwith "replay: request frame did not decode"
  in
  let req = { req with text } in
  let body =
    match (env.router, req.kind) with
    | Some router, _ -> run_routed l env router req
    | None, Mix.Paql -> run_paql l env req.text
    | None, _ -> snd (run_sql l env req)
  in
  ignore (span l "net.encode" (fun () -> Protocol.encode_response { status = Protocol.Ok; body }))

type result = {
  requests : int;
  traced_s : float;  (** wall time of the traced pass *)
  untraced_s : float;  (** the same requests with spans off *)
  ledger : ledger;
  gc_before : Gc.stat;
  gc_after : Gc.stat;
}

(* Replay the sequence untraced until [budget] seconds pass (at least
   [min_requests]), then the same requests again with spans on. Each
   pass starts with the columnar image build every workload pays at
   set-up. *)
let run ~budget ~min_requests env (reqs : unit -> Mix.req) =
  let l = ledger () in
  let fresh_image () =
    Pb_sql.Database.put env.db "recipes" (Pb_sql.Database.find_exn env.db "recipes");
    rebuild_image l env
  in
  let done_ = ref [] and n = ref 0 in
  let t0 = Util.now () in
  fresh_image ();
  while Util.now () -. t0 < budget || !n < min_requests do
    let r = reqs () in
    run_one l env r;
    done_ := r :: !done_;
    incr n
  done;
  let untraced_s = Util.now () -. t0 in
  let seq = List.rev !done_ in
  l.on <- true;
  let gc_before = Gc.quick_stat () in
  let t1 = Util.now () in
  fresh_image ();
  List.iter (run_one l env) seq;
  let traced_s = Util.now () -. t1 in
  let gc_after = Gc.quick_stat () in
  { requests = !n; traced_s; untraced_s; ledger = l; gc_before; gc_after }
