(* The four workloads: their tables, their request pools and the seeded
   closed-loop request sequence the client sends over its one
   connection. *)

module Prng = Pb_util.Prng

type kind = Point | Range | Count | Group | Insert | Update | Paql

let kind_name = function
  | Point -> "point"
  | Range -> "range"
  | Count -> "count"
  | Group -> "group"
  | Insert | Update -> "write"
  | Paql -> "paql"

let is_write = function Insert | Update -> true | _ -> false

type req = { kind : kind; text : string }

type t = {
  name : string;
  router : bool;  (** two [pb_server --shard i/2] behind a [pb_router] *)
  strategy : string option;  (** [\strategy] line sent on every connection *)
  tables : (string * Pb_relation.Relation.t) list;
  pool : req array;  (** the distinct requests *)
  weights : (kind * int) list;  (** requests of each kind per deck of their sum *)
}

let names = [ "sql_read"; "paql_exact"; "paql_sketch"; "router_rw" ]

(* Inserted rows get ids above this and values no checked read selects
   (gluten 'none', 100 kcal — below the generator's 150 kcal floor), and
   updates touch only [prep_minutes], which no checked read returns; so
   read answers do not depend on how writes interleave. *)
let insert_id_base = 10_000_000

let cuisines = [| "italian"; "mexican"; "indian"; "thai"; "greek"; "japanese"; "american"; "moroccan" |]

let sql_reads rng ~rows ~per_kind =
  let point () =
    let id = Prng.int_in rng 1 rows in
    { kind = Point;
      text = Printf.sprintf "SELECT id, name, cuisine, calories, protein FROM recipes WHERE id = %d" id }
  in
  let range () =
    let lo = Prng.int_in rng 300 1100 in
    { kind = Range;
      text =
        Printf.sprintf
          "SELECT id, calories, protein FROM recipes WHERE calories BETWEEN %d AND %d ORDER BY protein DESC, id LIMIT 10"
          lo (lo + Prng.int_in rng 2 6) }
  in
  let count () =
    let p = Prng.int_in rng 10 55 in
    { kind = Count;
      text =
        Printf.sprintf
          "SELECT COUNT(*) FROM recipes WHERE gluten = 'free' AND protein > %d AND fat < %d" p
          (Prng.int_in rng 10 50) }
  in
  let group () =
    { kind = Group;
      text =
        Printf.sprintf
          "SELECT cuisine, COUNT(*), SUM(protein), MAX(fat) FROM recipes WHERE calories >= %d GROUP BY cuisine ORDER BY cuisine"
          (Prng.int_in rng 150 900) }
  in
  List.concat_map (fun f -> List.init per_kind (fun _ -> f ())) [ point; range; count; group ]

(* A 2000 kcal window starting at 1000..1800 kcal: the sketch package
   refines in trivial steps, so partitioning is nearly all of the work —
   the layer this workload exists to expose. (Narrower windows make some
   refine MILPs run for seconds; hard branch-and-bound is paql_exact's
   subject.) *)
let sketch_query lo =
  Printf.sprintf
    "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN %d AND %d MAXIMIZE SUM(P.protein)"
    lo (lo + 2000)

let exact_queries rng ~recipe_rows ~knap_rows ~meals ~knaps =
  let meal () =
    let c = Prng.choice rng cuisines in
    let s = Prng.int_in rng 1 (recipe_rows - 2000) in
    let lo = Prng.int_in rng 1500 2400 in
    { kind = Paql;
      text =
        Printf.sprintf
          "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.cuisine = '%s' AND R.id BETWEEN %d AND %d SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN %d AND %d AND SUM(P.fat) <= %d MAXIMIZE SUM(P.protein)"
          c s (s + 1999) lo (lo + 200) (Prng.int_in rng 40 90) }
  in
  let knap () =
    let s = Prng.int_in rng 1 (knap_rows - 60) in
    { kind = Paql;
      text =
        Printf.sprintf
          "SELECT PACKAGE(R) AS P FROM knapsack R WHERE R.id BETWEEN %d AND %d SUCH THAT COUNT(*) = 7 AND SUM(P.a) <= %d MAXIMIZE SUM(P.b)"
          s (s + 59) (Prng.int_in rng 60 150) }
  in
  List.init meals (fun _ -> meal ()) @ List.init knaps (fun _ -> knap ())

let writes rng ~rows ~per_kind =
  let insert i =
    { kind = Insert;
      text =
        Printf.sprintf
          "INSERT INTO recipes VALUES (%d, 'bench row %d', 'none', 'none', 100, 1, 1, 1, 0, 1.5, 1.5, %d)"
          (insert_id_base + i) i (Prng.int_in rng 5 90) }
  in
  let update _ =
    { kind = Update;
      text =
        Printf.sprintf "UPDATE recipes SET prep_minutes = %d WHERE id = %d" (Prng.int_in rng 5 90)
          (Prng.int_in rng 1 rows) }
  in
  List.init per_kind insert @ List.init per_kind update

let make ~seed name =
  let rng = Prng.create (seed * 7 + 1) in
  let recipes rows = ("recipes", Data.recipes ~seed ~rows) in
  match name with
  | "sql_read" ->
      let rows = 100_000 in
      { name; router = false; strategy = None; tables = [ recipes rows ];
        pool = Array.of_list (sql_reads rng ~rows ~per_kind:64);
        weights = [ (Point, 1); (Range, 1); (Count, 1); (Group, 1) ] }
  | "paql_exact" ->
      let recipe_rows = 20_000 and knap_rows = 3_000 in
      { name; router = false; strategy = Some "ilp";
        tables = [ recipes recipe_rows; ("knapsack", Data.knapsack ~seed ~rows:knap_rows) ];
        pool = Array.of_list (exact_queries rng ~recipe_rows ~knap_rows ~meals:96 ~knaps:288);
        weights = [ (Paql, 1) ] }
  | "paql_sketch" ->
      { name; router = false; strategy = Some "sketch-refine";
        tables = [ recipes 30_000 ];
        pool = Array.init 32 (fun _ -> { kind = Paql; text = sketch_query (Prng.int_in rng 1000 1800) });
        weights = [ (Paql, 1) ] }
  | "router_rw" ->
      let rows = 10_000 in
      let paql =
        List.init 8 (fun _ -> { kind = Paql; text = sketch_query (Prng.int_in rng 1000 1800) })
      in
      { name; router = true; strategy = None; tables = [ recipes rows ];
        pool = Array.of_list (sql_reads rng ~rows ~per_kind:32 @ writes rng ~rows ~per_kind:32 @ paql);
        weights =
          [ (Count, 30); (Group, 30); (Point, 10); (Range, 10); (Insert, 5); (Update, 5); (Paql, 2) ] }
  | other -> invalid_arg ("unknown workload " ^ other)

(* The request indices the client sends, in order. Kinds are
   dealt from a shuffled deck holding each kind [weight] times, and the
   members of a kind from a shuffled deck of them, so every run sends
   the mix, and each kind's requests, in their exact proportions.
   Deterministic in the seed; the traced replay walks the same sequence. *)
let sequence ~seed w =
  let rng = Prng.create (seed * 1_000_003) in
  let dealer items =
    let deck = Array.copy items and pos = ref (Array.length items) in
    fun () ->
      if !pos = Array.length deck then begin
        Prng.shuffle rng deck;
        pos := 0
      end;
      incr pos;
      deck.(!pos - 1)
  in
  let members k =
    dealer (Array.of_list (List.filter (fun i -> w.pool.(i).kind = k) (List.init (Array.length w.pool) Fun.id)))
  in
  let by_kind = List.map (fun (k, _) -> (k, members k)) w.weights in
  let kinds = dealer (Array.of_list (List.concat_map (fun (k, n) -> List.init n (fun _ -> k)) w.weights)) in
  fun () -> List.assoc (kinds ()) by_kind ()
