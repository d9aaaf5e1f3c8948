(* Seeded tables. Every table the servers load is generated here from
   the run's seed and handed to them as CSV through [--table]; the
   benchmark loads the same files into its own database for reference
   answers and the traced replay. *)

module Prng = Pb_util.Prng
module Value = Pb_relation.Value
module Schema = Pb_relation.Schema
module Relation = Pb_relation.Relation

let recipes ~seed ~rows = Pb_workload.Workload.recipes ~seed ~n:rows ()

(* Correlated knapsack (value ~ 1000 x weight): the LP relaxation is
   fractional, so branch-and-bound does real work. *)
let knapsack ~seed ~rows =
  let rng = Prng.create (seed + 7919) in
  let col name = { Schema.name; ty = Value.T_int } in
  let schema = Schema.make [ col "id"; col "a"; col "b" ] in
  Relation.create schema
    (List.init rows (fun i ->
         let a = Prng.int_in rng 1 50 in
         [| Value.Int (i + 1); Value.Int a; Value.Int ((a * 1000) + Prng.int rng 500) |]))

let write_csv path rel =
  let header = Schema.names (Relation.schema rel) in
  let rows =
    Array.to_list (Relation.rows rel)
    |> List.map (fun r -> Array.to_list (Array.map Value.to_string r))
  in
  Pb_util.Csv.write_file path (header :: rows)

(* Write each table to [dir]/<name>.csv and load the files back into a
   fresh database, so the reference sees exactly what the servers parse. *)
let materialize ~dir tables =
  let db = Pb_sql.Database.create () in
  let specs =
    List.map
      (fun (name, rel) ->
        let path = Filename.concat dir (name ^ ".csv") in
        write_csv path rel;
        Pb_sql.Database.load_csv db ~name path;
        name ^ "=" ^ path)
      tables
  in
  (db, specs)
