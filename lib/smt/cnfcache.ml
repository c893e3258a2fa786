(* A recipe is an encoding captured in canonical variable numbering:
   scratch var 0 is the true wire, vars 1..n_inputs are the inputs (in
   the order the builder received them), and everything above is
   auxiliary. Recording runs the builder in a throwaway context, so the
   numbering is reproducible: the same builder always yields the same
   recipe, which is what makes the global table deterministic even when
   several domains race to record the same key. *)
type recipe = {
  n_inputs : int;
  n_aux : int;
  clauses : Lit.t array array;  (* emission order, scratch numbering *)
  outputs : Lit.t array array;  (* scratch numbering *)
}

let n_inputs r = r.n_inputs
let n_aux r = r.n_aux
let n_clauses r = Array.length r.clauses

let record ~n_inputs build =
  let ctx = Tseitin.create () in
  (* var 0 is the context's true wire; the next [n_inputs] fresh wires
     are therefore exactly vars 1..n_inputs *)
  let inputs = Array.init n_inputs (fun _ -> Tseitin.fresh ctx) in
  let clauses = ref [] in
  Tseitin.set_tap ctx (Some (fun c -> clauses := Array.of_list c :: !clauses));
  let outputs = build ctx inputs in
  Tseitin.set_tap ctx None;
  let n_total = Sat.num_vars (Tseitin.solver ctx) in
  {
    n_inputs;
    n_aux = n_total - 1 - n_inputs;
    clauses = Array.of_list (List.rev !clauses);
    outputs;
  }

let replay r ctx inputs =
  if Array.length inputs <> r.n_inputs then
    invalid_arg "Cnfcache.replay: input arity mismatch";
  let sat = Tseitin.solver ctx in
  let aux = Array.init r.n_aux (fun _ -> Sat.new_var sat) in
  (* base (positive) literal standing for a scratch variable *)
  let base v =
    if v = 0 then Tseitin.true_ ctx
    else if v <= r.n_inputs then inputs.(v - 1)
    else Lit.pos aux.(v - r.n_inputs - 1)
  in
  let subst l =
    let m = base (Lit.var l) in
    if Lit.sign l then m else Lit.neg m
  in
  Array.iter
    (fun c ->
      Sat.add_clause_permanent sat (List.map subst (Array.to_list c)))
    r.clauses;
  Array.map (Array.map subst) r.outputs

(* ---- global sharded table ---- *)

(* Mutex-striped: a key's shard is its hash modulo [shards]. Lookups and
   installs from concurrent domains (the encoders of served jobs)
   only contend when they hash to the same stripe, and the critical
   sections are a hashtable probe — recording itself happens outside
   any lock. *)
let shards = 16

type shard = { mu : Mutex.t; table : (string, recipe) Hashtbl.t }

let table =
  Array.init shards (fun _ ->
      { mu = Mutex.create (); table = Hashtbl.create 32 })

let shard_of key = table.(Hashtbl.hash key mod shards)

let find ~key =
  let sh = shard_of key in
  Mutex.lock sh.mu;
  let r = Hashtbl.find_opt sh.table key in
  Mutex.unlock sh.mu;
  r

let install ~key r =
  let sh = shard_of key in
  Mutex.lock sh.mu;
  let winner =
    match Hashtbl.find_opt sh.table key with
    | Some existing -> existing (* first install wins *)
    | None ->
      Hashtbl.add sh.table key r;
      r
  in
  Mutex.unlock sh.mu;
  winner

let clear () =
  Array.iter
    (fun sh ->
      Mutex.lock sh.mu;
      Hashtbl.reset sh.table;
      Mutex.unlock sh.mu)
    table

let cached_recipes () =
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.mu;
      let n = Hashtbl.length sh.table in
      Mutex.unlock sh.mu;
      acc + n)
    0 table
