(* The one machine-readable record a bench section leaves behind:
   _bench_out/<SECTION>.json, with a single schema for every section

     { "section": "...", "params": { ... },
       "rows": [ { "field": value, ... }, ... ],
       "gates": { "name": true|false, ... } }

   Numbers keep the precision the section's table prints, so the records
   of the virtual-time sections are as deterministic as their tables and
   bench/dune diffs them along with the tables. *)

type value =
  | Int of int
  | Num of int * float  (** decimals, value; a non-finite value is null *)
  | Bool of bool
  | Str of string
  | Obj of (string * value) list

(* Bench artifacts (records, Chrome traces) land in _bench_out/ instead of
   littering the working directory; the directory is gitignored. *)
let bench_out file =
  let dir = "_bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir file

(* Keys and labels are printable ASCII literals of this harness, for
   which OCaml's %S escaping coincides with JSON's. *)
let rec json = function
  | Int n -> string_of_int n
  | Num (digits, x) -> if Float.is_finite x then Printf.sprintf "%.*f" digits x else "null"
  | Bool b -> string_of_bool b
  | Str s -> Printf.sprintf "%S" s
  | Obj [] -> "{}"
  | Obj fields ->
    let field (k, v) = Printf.sprintf "%S: %s" k (json v) in
    "{ " ^ String.concat ", " (List.map field fields) ^ " }"

(* Write the record, then print "GATE FAILED: <message>" for each gate
   [(name, ok, message)] that failed and exit 1 if any did. *)
let write ~section ~params ~rows ~gates =
  let file = bench_out (section ^ ".json") in
  let oc = open_out file in
  Printf.fprintf oc "{\n  \"section\": %S,\n  \"params\": %s,\n  \"rows\": [\n%s\n  ],\n"
    section (json (Obj params))
    (String.concat ",\n" (List.map (fun row -> "    " ^ json (Obj row)) rows));
  Printf.fprintf oc "  \"gates\": %s\n}\n"
    (json (Obj (List.map (fun (name, ok, _) -> (name, Bool ok)) gates)));
  close_out oc;
  Printf.printf "\n    wrote %s\n" file;
  let failed = List.filter (fun (_, ok, _) -> not ok) gates in
  List.iter (fun (_, _, message) -> Printf.printf "    GATE FAILED: %s\n" message) failed;
  if failed <> [] then exit 1
