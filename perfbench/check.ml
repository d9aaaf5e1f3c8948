(* Reply checks. SQL replies are byte-compared with the in-process
   REPL's answer on the same data; a PaQL reply's package is rebuilt
   from its ids and re-checked against the query's compiled constraints,
   its objective recomputed, and (for exact workloads) a proven optimum
   compared with the in-process ILP optimum. *)

module Coeffs = Pb_core.Coeffs
module Engine = Pb_core.Engine

type expect =
  | Text of string  (** the exact reply body *)
  | Package of {
      coeffs : Coeffs.t;
      index_of_id : (string, int) Hashtbl.t;  (** candidate row by its id *)
      optimum : string option option;
          (** [Some (Some obj)]: the in-process ILP proved [obj] optimal;
              [Some None]: it proved the query infeasible; [None]: no
              optimality reference *)
    }

let fmt_objective v = Printf.sprintf "%g" v

let package_expect ~db ~exact text =
  let coeffs = Coeffs.make db (Pb_paql.Parser.parse text) in
  let schema = Pb_relation.Relation.schema coeffs.candidates in
  let id_col =
    List.find_index
      (fun n -> n = "id" || Filename.extension n = ".id")
      (Pb_relation.Schema.names schema)
    |> Option.get
  in
  let index_of_id = Hashtbl.create coeffs.n in
  Array.iteri
    (fun i row -> Hashtbl.replace index_of_id (Pb_relation.Value.to_string row.(id_col)) i)
    (Pb_relation.Relation.rows coeffs.candidates);
  let optimum =
    if not exact then None
    else
      let r =
        Engine.run_coeffs ~gov:(Pb_util.Gov.create ~deadline_in:60.0 ()) ~strategy:Engine.Ilp db
          coeffs
      in
      match (r.proof, r.objective) with
      | Engine.Optimal, Some v -> Some (Some (fmt_objective v))
      | Engine.Infeasible, _ -> Some None
      | _ -> failwith ("in-process ILP did not prove an optimum for: " ^ text)
  in
  Package { coeffs; index_of_id; optimum }

(* What a PaQL reply says: the package's ids, its objective line, and
   whether the strategy line claims a proof. *)
type paql_reply = { ids : string list option; objective : string option; proven : bool }

let cells line = String.split_on_char '|' line |> List.map String.trim

let parse_paql body =
  let lines = String.split_on_char '\n' body in
  let field prefix =
    List.find_map
      (fun l ->
        if String.starts_with ~prefix l then
          Some (String.sub l (String.length prefix) (String.length l - String.length prefix))
        else None)
      lines
  in
  let proven =
    match field "strategy: " with
    | Some s -> Util.split_words s |> List.mem "(proven"
    | None -> false
  in
  let ids =
    match lines with
    | header :: _rule :: rows when not (String.starts_with ~prefix:"no valid package" header) ->
        let col = List.find_index (fun n -> Filename.extension n = ".id") (cells header) in
        Option.map
          (fun col ->
            List.filter (fun l -> String.contains l '|') rows
            |> List.map (fun l -> Option.value (List.nth_opt (cells l) col) ~default:""))
          col
    | _ -> None
  in
  { ids; objective = field "objective: "; proven }

let check_package ~coeffs ~index_of_id ~optimum body =
  let r = parse_paql body in
  match r.ids with
  | None -> (
      (* "no valid package": right only when infeasibility is proven. *)
      match optimum with Some None -> r.proven | _ -> false)
  | Some ids -> (
      let mult = Array.make coeffs.Coeffs.n 0 in
      let known =
        List.for_all
          (fun id ->
            match Hashtbl.find_opt index_of_id id with
            | Some i ->
                mult.(i) <- mult.(i) + 1;
                true
            | None -> false)
          ids
      in
      known && Coeffs.check_mult coeffs mult
      &&
      match (Coeffs.objective_of_mult coeffs mult, r.objective) with
      | Some v, Some shown -> (
          fmt_objective v = shown
          &&
          match optimum with
          | Some (Some best) when r.proven -> shown = best
          | Some None -> false
          | _ -> true)
      | None, None -> true
      | _ -> false)

let check expect body =
  match expect with
  | Text t -> t = body
  | Package { coeffs; index_of_id; optimum } -> check_package ~coeffs ~index_of_id ~optimum body

(* The checks must reject a reply whose objective was altered and a
   package that breaks a constraint. Both are made from a real reply of
   the in-process REPL on a small table. *)
let self_test () =
  let db = Pb_sql.Database.create () in
  Pb_sql.Database.put db "recipes" (Pb_workload.Workload.recipes ~seed:5 ~n:300 ());
  let query =
    "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' SUCH THAT COUNT(*) = 3 AND \
     SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE SUM(P.protein)"
  in
  let st = Pb_shell.Repl.create db in
  ignore (Pb_shell.Repl.handle st "\\strategy ilp");
  let body = (Pb_shell.Repl.handle st query).output in
  let expect = package_expect ~db ~exact:true query in
  let lines = String.split_on_char '\n' body in
  let corrupt_objective =
    List.map
      (fun l ->
        if String.starts_with ~prefix:"objective: " l then
          "objective: "
          ^ fmt_objective (float_of_string (String.sub l 11 (String.length l - 11)) +. 1.0)
        else l)
      lines
  in
  (* Dropping the last package row leaves two tuples, which breaks the
     three-tuple cardinality constraint. *)
  let short_package =
    let last = ref 0 in
    List.iteri (fun i l -> if String.contains l '|' then last := i) lines;
    List.filteri (fun i _ -> i <> !last) lines
  in
  let sql = Text "count\n-----\n42" in
  check expect body
  && (not (check expect (String.concat "\n" corrupt_objective)))
  && (not (check expect (String.concat "\n" short_package)))
  && check sql "count\n-----\n42"
  && not (check sql "count\n-----\n43")
