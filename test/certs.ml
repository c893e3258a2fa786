(* Certificate plumbing shared by the test suites that drive the proof
   plane: the independent checker over text, certificate reconstruction
   exactly as [sciduction_cli check-proof] does it, and spool cleanup. *)

module Drat = Cert.Drat
module Json = Obs.Json

let check_strings cnf proof =
  match (Drat.parse_dimacs cnf, Drat.parse_proof proof) with
  | Ok c, Ok p -> Drat.check c p
  | Error e, _ | _, Error e -> Error e

let read_prefix path n =
  In_channel.with_open_bin path (fun ic -> really_input_string ic n)

(* The DIMACS/DRAT pair behind one certificate index entry: the CNF
   prefix plus one unit clause per core literal, and the DRAT prefix
   plus the empty clause. *)
let reconstruct entry =
  let get f k =
    match Option.bind (Json.member k entry) f with
    | Some v -> v
    | None -> Alcotest.failf "index entry lacks %s" k
  in
  let str k = get Json.to_str k in
  let num k = get Json.to_int k in
  let core =
    match Json.member "core" entry with
    | Some (Json.List l) -> List.filter_map Json.to_int l
    | _ -> []
  in
  let cnf =
    Printf.sprintf "p cnf %d %d\n" (num "maxvar")
      (num "cnf_clauses" + List.length core)
    ^ read_prefix (str "cnf") (num "cnf_bytes")
    ^ String.concat "" (List.map (fun l -> Printf.sprintf "%d 0\n" l) core)
  in
  let drat = read_prefix (str "drat") (num "drat_bytes") ^ "0\n" in
  (cnf, drat)

(* Remove every file a plane enabled with [prefix] wrote. *)
let cleanup_spools prefix =
  let dir = Filename.dirname prefix and base = Filename.basename prefix in
  Array.iter
    (fun f ->
      if String.starts_with ~prefix:base f then
        Sys.remove (Filename.concat dir f))
    (Sys.readdir dir)
