(* Independent verdict checks: expected answers come from exhaustive
   evaluation or from the problem's parameters, never from the solvers. *)

module J = Server.Jobs

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt
let mask width v = v land ((1 lsl width) - 1)

(* every input vector of [arity] words of [width] bits *)
let inputs ~arity ~width =
  let rec go k =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun rest -> List.init (1 lsl width) (fun v -> v :: rest))
        (go (k - 1))
  in
  go arity

let first_mismatch ~arity ~width got expected =
  List.find_opt
    (fun xs -> List.map (mask width) (got xs) <> List.map (mask width) (expected xs))
    (inputs ~arity ~width)

let mismatch what = function
  | None -> Ok ()
  | Some xs ->
    fail "%s differs from the reference at (%s)" what
      (String.concat "," (List.map string_of_int xs))

let hd ~name ~width p =
  let b = Ogis.Hd_suite.find name in
  mismatch name
    (first_mismatch ~arity:b.Ogis.Hd_suite.arity ~width
       (Ogis.Straightline.eval p) (b.Ogis.Hd_suite.reference ~width))

let deob ~program ~width p =
  let clean =
    match program with
    | `P1 -> Prog.Benchmarks.interchange_w ~width
    | `P2 -> Prog.Benchmarks.multiply45_w ~width
  in
  let names = clean.Prog.Lang.inputs in
  let reference xs =
    List.map snd (Prog.Interp.run_fn clean (List.combine names xs))
  in
  mismatch "clean program"
    (first_mismatch ~arity:(List.length names) ~width
       (Ogis.Straightline.eval p) reference)

(* ----- specs ----- *)

let expect ~verdict ~code want_verdict want_code =
  if verdict = want_verdict && code = want_code then Ok ()
  else fail "got %S (exit %d), expected %S (exit %d)" verdict code want_verdict want_code

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let memo f =
  let tbl = Hashtbl.create 16 in
  fun x ->
    match Hashtbl.find_opt tbl x with
    | Some y -> y
    | None ->
      let y = f x in
      Hashtbl.replace tbl x y;
      y

(* cycle counts of the pinned modexp for every exponent *)
let modexp_times =
  memo (fun bits ->
      let pf = Microarch.Platform.create (Prog.Benchmarks.modexp ~bits ()) in
      Array.init (1 lsl bits) (fun e ->
          Microarch.Platform.time pf [ ("base", 123); ("exp", e) ]))

let timing ~bits ~tau ~verdict ~code =
  let times = modexp_times bits in
  let wcet = Array.fold_left max 0 times in
  let lines = String.split_on_char '\n' verdict in
  match
    Scanf.sscanf (List.hd lines) "WCET %d cycles at base=123, exp=%d%!"
      (fun c e -> (c, e))
  with
  | exception _ -> fail "unexpected timing verdict %S" verdict
  | c, e when c <> wcet || e < 0 || e >= Array.length times || times.(e) <> c ->
    fail "reported WCET %d at exp=%d, exhaustive maximum is %d" c e wcet
  | _ -> (
    match tau, List.tl lines with
    | None, [] when code = 0 -> Ok ()
    | Some t, [ l ] when wcet <= t ->
      expect ~verdict:l ~code
        (Printf.sprintf "<TA>: execution time is always <= %d" t)
        0
    | Some t, [ l ] when code = 1 -> (
      match Scanf.sscanf l "<TA>: NO \xe2\x80\x94 exp=%d takes %d cycles%!" (fun e c -> (e, c)) with
      | e, c when e >= 0 && e < Array.length times && times.(e) = c && c > t -> Ok ()
      | _ -> fail "bad <TA> witness %S for tau %d" l t
      | exception _ -> fail "unexpected <TA> line %S" l)
    | _ -> fail "timing verdict %S (exit %d) disagrees with WCET %d" verdict code wcet)

(* explicit-state search: is [bad] reachable from the initial state? *)
let aig_bad_reachable (aig, bad) =
  let module A = Invgen.Aig in
  let ni = A.num_inputs aig in
  let input_vectors =
    List.init (1 lsl ni) (fun v -> Array.init ni (fun i -> v land (1 lsl i) <> 0))
  in
  let seen = Hashtbl.create 64 in
  let rec explore = function
    | [] -> false
    | s :: rest ->
      if
        List.exists
          (fun iv -> A.eval aig ~latch_values:s ~input_values:iv bad)
          input_vectors
      then true
      else
        let succ =
          List.filter_map
            (fun iv ->
              let s' = A.next_state aig ~latch_values:s ~input_values:iv in
              if Hashtbl.mem seen s' then None
              else (
                Hashtbl.add seen s' ();
                Some s'))
            input_vectors
        in
        explore (succ @ rest)
  in
  let s0 = A.initial_state aig in
  Hashtbl.add seen s0 ();
  explore [ s0 ]

let invgen_safe =
  memo (fun (circuit, n) ->
      let m =
        match circuit with
        | `Ring -> Invgen.Engine.ring_counter ~n
        | `Mod5 -> Invgen.Engine.counter_mod5 ()
        | `Twin -> Invgen.Engine.twin_registers ~len:n
        | `Stuck -> Invgen.Engine.stuck_bit
      in
      not (aig_bad_reachable m))

let spec s ~verdict ~code =
  match s with
  | J.Bmc { system = { shift = Some _; _ }; max_depth } ->
    expect ~verdict ~code (Printf.sprintf "SAFE within depth %d" max_depth) 0
  | J.Bmc { system = { shift = None; modulus; bad_value; _ }; max_depth } ->
    if bad_value >= modulus || bad_value > max_depth then
      expect ~verdict ~code (Printf.sprintf "SAFE within depth %d" max_depth) 0
    else
      expect ~verdict ~code
        (Printf.sprintf "UNSAFE: counterexample of %d steps at depth %d"
           bad_value bad_value)
        1
  | J.Cegar { modulus; bad_value; _ } -> (
    if bad_value >= modulus then
      if starts_with ~prefix:"SAFE: " verdict && code = 0 then Ok ()
      else fail "got %S (exit %d), expected SAFE" verdict code
    else
      match Scanf.sscanf verdict "UNSAFE: counterexample of %d steps%!" Fun.id with
      | steps when steps >= bad_value && code = 1 -> Ok ()
      | _ | (exception _) ->
        fail "got %S (exit %d), expected UNSAFE in >= %d steps" verdict code
          bad_value)
  | J.Invgen { circuit; n } ->
    let safe = invgen_safe (circuit, n) in
    if safe = starts_with ~prefix:"with invariants: proved;" verdict
       && code = if safe then 0 else 1
    then Ok ()
    else fail "got %S (exit %d) for a %s circuit" verdict code
        (if safe then "safe" else "unsafe")
  | J.Timing { source = None; bits; tau } -> timing ~bits ~tau ~verdict ~code
  | J.Lstar { states } ->
    if
      starts_with ~prefix:(Printf.sprintf "learned %d-state DFA " states) verdict
      && code = 0
    then Ok ()
    else fail "got %S (exit %d), expected a %d-state DFA" verdict code states
  | J.Deobfuscate _ | J.Timing { source = Some _; _ } ->
    fail "no reference for %s" (Obs.Json.to_string (J.to_json s))
