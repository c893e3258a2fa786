(* Named verification jobs: one serializable spec per sciduction loop,
   plus the single runner both front-ends share.

   The CLI's loop subcommands and the daemon's dispatchers execute the
   SAME [run] below, so a served verdict is bit-identical to the
   one-shot CLI verdict by construction, not by testing alone: there is
   exactly one place that turns a loop outcome into a verdict string.
   Every loop runs sequentially; the daemon gets its parallelism by
   running whole jobs concurrently, which keeps verdict texts
   independent of the server's width.

   Specs also carry their content address: [key] digests the canonical
   problem content plus the query bounds (the cache key), [family]
   digests the content alone (the warm-session key), so two submissions
   that spell the same system differently still share cache entries and
   warm sessions. *)

module J = Obs.Json
module B = Prog.Benchmarks

type bmc_system = {
  shift : int option;  (* Some len: shift register; None: mod counter *)
  junk : int;
  bits : int;
  modulus : int;
  bad_value : int;
}

type spec =
  | Deobfuscate of { program : [ `P1 | `P2 ]; width : int }
  | Timing of { source : string option; bits : int; tau : int option }
  | Cegar of { junk : int; bits : int; modulus : int; bad_value : int }
  | Bmc of { system : bmc_system; max_depth : int }
  | Invgen of { circuit : [ `Ring | `Mod5 | `Twin | `Stuck ]; n : int }
  | Lstar of { states : int }

type outcome = { verdict : string; code : int; cacheable : bool }

let kind = function
  | Deobfuscate _ -> "deobfuscate"
  | Timing _ -> "timing"
  | Cegar _ -> "cegar"
  | Bmc _ -> "bmc"
  | Invgen _ -> "invgen"
  | Lstar _ -> "lstar"

(* ----- JSON codec -----

   Field defaults mirror the CLI flag defaults, so {"kind":"bmc"} is
   the same job as a bare `sciduction_cli bmc`. *)

let circuit_name = function
  | `Ring -> "ring"
  | `Mod5 -> "mod5"
  | `Twin -> "twin"
  | `Stuck -> "stuck"

let program_name = function `P1 -> "p1" | `P2 -> "p2"

let to_json spec =
  let ints l = List.map (fun (k, v) -> (k, J.Int v)) l in
  match spec with
  | Deobfuscate { program; width } ->
    J.Obj
      [
        ("kind", J.String "deobfuscate");
        ("program", J.String (program_name program));
        ("width", J.Int width);
      ]
  | Timing { source; bits; tau } ->
    J.Obj
      (("kind", J.String "timing")
       :: ("bits", J.Int bits)
       :: ((match tau with Some t -> [ ("tau", J.Int t) ] | None -> [])
          @ match source with
            | Some s -> [ ("source", J.String s) ]
            | None -> []))
  | Cegar { junk; bits; modulus; bad_value } ->
    J.Obj
      (("kind", J.String "cegar")
      :: ints
           [
             ("junk", junk); ("bits", bits); ("modulus", modulus);
             ("bad", bad_value);
           ])
  | Bmc { system = s; max_depth } ->
    J.Obj
      (("kind", J.String "bmc")
       :: ((match s.shift with Some len -> [ ("shift", J.Int len) ] | None -> [])
          @ ints
              [
                ("junk", s.junk); ("bits", s.bits); ("modulus", s.modulus);
                ("bad", s.bad_value); ("max_depth", max_depth);
              ]))
  | Invgen { circuit; n } ->
    J.Obj
      [
        ("kind", J.String "invgen");
        ("circuit", J.String (circuit_name circuit));
        ("n", J.Int n);
      ]
  | Lstar { states } ->
    J.Obj [ ("kind", J.String "lstar"); ("states", J.Int states) ]

let ( let* ) = Result.bind

let int_field ?default j name =
  match J.member name j with
  | Some v -> (
    match J.to_int v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "field %S must be an integer" name))
  | None -> (
    match default with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "missing field %S" name))

let opt_int_field j name =
  match J.member name j with
  | None -> Ok None
  | Some v -> (
    match J.to_int v with
    | Some i -> Ok (Some i)
    | None -> Error (Printf.sprintf "field %S must be an integer" name))

let str_field ?default j name =
  match J.member name j with
  | Some v -> (
    match J.to_str v with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "field %S must be a string" name))
  | None -> (
    match default with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "missing field %S" name))

let positive what n =
  if n >= 1 then Ok n else Error (Printf.sprintf "%s must be >= 1" what)

let of_json j =
  let* k = str_field j "kind" in
  match k with
  | "deobfuscate" ->
    let* p = str_field ~default:"p2" j "program" in
    let* program =
      match p with
      | "p1" -> Ok `P1
      | "p2" -> Ok `P2
      | other -> Error (Printf.sprintf "unknown program %S (p1 or p2)" other)
    in
    let* width = Result.bind (int_field ~default:8 j "width") (positive "width") in
    Ok (Deobfuscate { program; width })
  | "timing" ->
    let* bits = Result.bind (int_field ~default:6 j "bits") (positive "bits") in
    let* tau = opt_int_field j "tau" in
    let* source =
      match J.member "source" j with
      | None -> Ok None
      | Some v -> (
        match J.to_str v with
        | Some s -> Ok (Some s)
        | None -> Error "field \"source\" must be a string")
    in
    Ok (Timing { source; bits; tau })
  | "cegar" ->
    let* junk = int_field ~default:8 j "junk" in
    let* bits = Result.bind (int_field ~default:3 j "bits") (positive "bits") in
    let* modulus = int_field ~default:6 j "modulus" in
    let* bad_value = int_field ~default:7 j "bad" in
    Ok (Cegar { junk; bits; modulus; bad_value })
  | "bmc" ->
    let* shift =
      match opt_int_field j "shift" with
      | Ok (Some len) -> Result.map Option.some (positive "shift" len)
      | other -> other
    in
    let* junk = int_field ~default:8 j "junk" in
    let* bits = Result.bind (int_field ~default:3 j "bits") (positive "bits") in
    let* modulus = int_field ~default:6 j "modulus" in
    let* bad_value = int_field ~default:7 j "bad" in
    let* max_depth = int_field ~default:16 j "max_depth" in
    Ok
      (Bmc
         { system = { shift; junk; bits; modulus; bad_value }; max_depth })
  | "invgen" ->
    let* c = str_field ~default:"mod5" j "circuit" in
    let* circuit =
      match c with
      | "ring" -> Ok `Ring
      | "mod5" -> Ok `Mod5
      | "twin" -> Ok `Twin
      | "stuck" -> Ok `Stuck
      | other ->
        Error
          (Printf.sprintf "unknown circuit %S (ring, mod5, twin or stuck)"
             other)
    in
    let* n = Result.bind (int_field ~default:4 j "n") (positive "n") in
    Ok (Invgen { circuit; n })
  | "lstar" ->
    let* states =
      Result.bind (int_field ~default:5 j "states") (positive "states")
    in
    Ok (Lstar { states })
  | other ->
    Error
      (Printf.sprintf
         "unknown job kind %S (deobfuscate, timing, cegar, bmc, invgen or \
          lstar)"
         other)

(* ----- content addressing ----- *)

let ts_fingerprint (ts : Mc.Ts.t) =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Format.fprintf fmt "l%d i%d init:" ts.Mc.Ts.num_latches ts.Mc.Ts.num_inputs;
  Array.iter
    (fun b -> Format.pp_print_char fmt (if b then '1' else '0'))
    ts.Mc.Ts.init;
  Array.iteri (fun i e -> Format.fprintf fmt " n%d=%a" i Mc.Ts.pp_expr e)
    ts.Mc.Ts.next;
  Format.fprintf fmt " bad=%a" Mc.Ts.pp_expr ts.Mc.Ts.bad;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let bmc_ts (s : bmc_system) =
  match s.shift with
  | Some len -> Mc.Systems.shift_register ~len
  | None ->
    Mc.Systems.mod_counter ~junk:s.junk ~bits:s.bits ~modulus:s.modulus
      ~bad_value:s.bad_value ()

let deobfuscate_problem program width =
  match program with
  | `P1 -> (B.interchange_obs_w ~width, Ogis.Component.fig8_p1, "fig8_p1")
  | `P2 -> (B.multiply45_obs_w ~width, Ogis.Component.fig8_p2, "fig8_p2")

let timing_problem source bits =
  match source with
  | Some text -> (
    match Prog.Syntax.parse text with
    | p -> (p, [])
    | exception Prog.Syntax.Parse_error { line; message } ->
      failwith (Printf.sprintf "timing source, line %d: %s" line message))
  | None -> (B.modexp ~bits (), [ ("base", 123) ])

(* The canonical problem content, bounds excluded: what a warm session
   may be shared across. *)
let content spec =
  match spec with
  | Deobfuscate { program; width } ->
    let obf, _library, libname = deobfuscate_problem program width in
    Printf.sprintf "deobfuscate|%s|w%d|%s"
      (Format.asprintf "%a" Prog.Lang.pp obf)
      width libname
  | Timing { source; bits; tau = _ } ->
    let program, pin = timing_problem source bits in
    Printf.sprintf "timing|%s|bound%d|pin:%s"
      (Format.asprintf "%a" Prog.Syntax.print program)
      bits
      (String.concat ","
         (List.map (fun (x, v) -> Printf.sprintf "%s=%d" x v) pin))
  | Cegar { junk; bits; modulus; bad_value } ->
    "cegar|"
    ^ ts_fingerprint
        (Mc.Systems.mod_counter ~junk ~bits ~modulus ~bad_value ())
  | Bmc { system; max_depth = _ } -> "bmc|" ^ ts_fingerprint (bmc_ts system)
  | Invgen { circuit; n } ->
    Printf.sprintf "invgen|%s|n%d" (circuit_name circuit) n
  | Lstar { states } -> Printf.sprintf "lstar|states%d" states

let bounds = function
  | Bmc { max_depth; _ } -> Printf.sprintf "|depth%d" max_depth
  | Timing { tau = Some t; _ } -> Printf.sprintf "|tau%d" t
  | _ -> ""

let family spec = Digest.to_hex (Digest.string (content spec))
let key spec = Digest.to_hex (Digest.string (content spec ^ bounds spec))

(* ----- the shared runner ----- *)

let exhausted reason =
  Printf.sprintf "EXHAUSTED (%s)" (Budget.reason_to_string reason)

let run_deobfuscate ~budget program width =
  let obf, library, _libname = deobfuscate_problem program width in
  Obs.info "obfuscated source:@.%a@.@." Prog.Lang.pp obf;
  match Ogis.Deobfuscate.run ~budget ~library obf with
  | Error (Ogis.Deobfuscate.Unrealizable _) ->
    {
      verdict = "synthesis failed: no library program fits the oracle";
      code = 1;
      cacheable = true;
    }
  | Error (Ogis.Deobfuscate.Exhausted p) ->
    {
      verdict =
        Printf.sprintf "%s: %d examples gathered, candidate %s"
          (exhausted p.Ogis.Synth.reason)
          (List.length p.Ogis.Synth.stats.Ogis.Synth.examples)
          (match p.Ogis.Synth.best with
          | Some _ -> "in hand"
          | None -> "none");
      code = 0;
      cacheable = false;
    }
  | Ok r ->
    Obs.info "re-synthesized in %.3fs (%d oracle queries):@.%a@."
      r.Ogis.Deobfuscate.seconds
      r.Ogis.Deobfuscate.stats.Ogis.Synth.oracle_queries Ogis.Straightline.pp
      r.Ogis.Deobfuscate.clean;
    let espec =
      {
        Ogis.Encode.width;
        ninputs = List.length obf.Prog.Lang.inputs;
        noutputs = List.length obf.Prog.Lang.outputs;
        library;
      }
    in
    let spec_fn =
      match program with
      | `P1 -> fun ts ->
          (match ts with [ s; d ] -> [ d; s ] | _ -> assert false)
      | `P2 -> fun ts ->
          (match ts with
          | [ y ] -> [ Smt.Bv.bmul y (Smt.Bv.const ~width 45) ]
          | _ -> assert false)
    in
    (match Ogis.Synth.verify_against espec r.Ogis.Deobfuscate.clean ~spec_fn with
    | Ok () ->
      {
        verdict = "verified equivalent to the specification";
        code = 0;
        cacheable = true;
      }
    | Error cex ->
      {
        verdict =
          Printf.sprintf "NOT equivalent; counterexample %s"
            (String.concat "," (List.map string_of_int cex));
        code = 1;
        cacheable = true;
      })

let run_timing ~budget source bits tau =
  let program, pin = timing_problem source bits in
  let pf = Microarch.Platform.create program in
  let platform = Microarch.Platform.time pf in
  let lines = Buffer.create 64 in
  let addf fmt =
    Printf.ksprintf
      (fun s ->
        if Buffer.length lines > 0 then Buffer.add_char lines '\n';
        Buffer.add_string lines s)
      fmt
  in
  let converged t =
    match Gametime.Analysis.wcet_opt t ~platform with
    | None ->
      addf "no feasible paths";
      1
    | Some w -> (
      Obs.info "basis paths: %d@." (List.length t.Gametime.Analysis.basis);
      addf "WCET %d cycles at %s" w.Gametime.Analysis.measured_cycles
        (String.concat ", "
           (List.map
              (fun (x, v) -> Printf.sprintf "%s=%d" x v)
              w.Gametime.Analysis.test));
      match tau with
      | None -> 0
      | Some tau ->
        (* problem <TA> from the WCET in hand: [answer_ta] would search
           it again *)
        if w.Gametime.Analysis.measured_cycles <= tau then begin
          addf "<TA>: execution time is always <= %d" tau;
          0
        end
        else begin
          addf "<TA>: NO — exp=%d takes %d cycles"
            (List.assoc "exp" w.Gametime.Analysis.test)
            w.Gametime.Analysis.measured_cycles;
          1
        end)
  in
  let cacheable = ref true in
  let code =
    match
      Gametime.Analysis.analyze ~bound:bits ~seed:2012 ~pin ~budget
        ~platform program
    with
    | Budget.Converged t -> converged t
    | Budget.Exhausted { Gametime.Analysis.analysis; reason } ->
      cacheable := false;
      (match analysis with
      | None -> addf "%s: no basis path extracted" (exhausted reason)
      | Some t -> (
        addf "%s: truncated basis of %d paths" (exhausted reason)
          (List.length t.Gametime.Analysis.basis);
        match Gametime.Analysis.wcet_opt t ~platform with
        | Some w ->
          addf "longest predicted path so far: %d cycles"
            w.Gametime.Analysis.measured_cycles
        | None -> ()));
      0
  in
  { verdict = Buffer.contents lines; code; cacheable = !cacheable }

let run_cegar ~budget junk bits modulus bad_value =
  let t = Mc.Systems.mod_counter ~junk ~bits ~modulus ~bad_value () in
  Obs.info "system %s: %d latches@." t.Mc.Ts.name t.Mc.Ts.num_latches;
  match Mc.Cegar.verify ~budget t with
  | Budget.Converged (Mc.Cegar.Safe { abstract_latches; iterations; _ }) ->
    {
      verdict =
        Printf.sprintf "SAFE: %d visible latches after %d iterations"
          abstract_latches iterations;
      code = 0;
      cacheable = true;
    }
  | Budget.Converged (Mc.Cegar.Unsafe { trace; _ }) ->
    {
      verdict =
        Printf.sprintf "UNSAFE: counterexample of %d steps" (List.length trace);
      code = 1;
      cacheable = true;
    }
  | Budget.Exhausted p ->
    {
      verdict =
        Printf.sprintf "%s: %d visible latches after %d refinements, no verdict"
          (exhausted p.Mc.Cegar.reason)
          (List.length p.Mc.Cegar.visible)
          p.Mc.Cegar.iterations;
      code = 0;
      cacheable = false;
    }

let bmc_unsafe depth trace =
  {
    verdict =
      Printf.sprintf "UNSAFE: counterexample of %d steps at depth %d"
        (List.length trace) depth;
    code = 1;
    cacheable = true;
  }

let bmc_safe max_depth =
  {
    verdict = Printf.sprintf "SAFE within depth %d" max_depth;
    code = 0;
    cacheable = true;
  }

let bmc_exhausted reason proved max_depth =
  {
    verdict =
      Printf.sprintf "%s: proved clean through depth %d (of %d)"
        (exhausted reason) proved max_depth;
    code = 0;
    cacheable = false;
  }

let run_bmc ?warm ~budget ~family system max_depth =
  let mk () =
    let t = bmc_ts system in
    Obs.info "system %s: %d latches@." t.Mc.Ts.name t.Mc.Ts.num_latches;
    t
  in
  match warm with
  | None -> (
    let t = mk () in
    match Mc.Bmc.sweep ~budget t ~max_depth with
    | Budget.Converged (Some (depth, trace)) -> bmc_unsafe depth trace
    | Budget.Converged None -> bmc_safe max_depth
    | Budget.Exhausted p ->
      bmc_exhausted p.Mc.Bmc.reason p.Mc.Bmc.proved_depth max_depth)
  | Some store ->
    let entry = Warm.acquire store ~family mk in
    Fun.protect
      ~finally:(fun () -> Warm.release entry)
      (fun () ->
        match entry.Warm.cex with
        | Some (depth, trace) when depth <= max_depth ->
          (* the minimal counterexample is already in hand; a sweep from
             scratch would rediscover exactly this depth *)
          bmc_unsafe depth trace
        | _ ->
          let start = entry.Warm.proved + 1 in
          if start > max_depth then bmc_safe max_depth
          else (
            match
              Mc.Bmc.sweep_session ~start ~budget entry.Warm.sess ~max_depth
            with
            | Budget.Converged (Some (depth, trace)) ->
              entry.Warm.proved <- max entry.Warm.proved (depth - 1);
              entry.Warm.cex <- Some (depth, trace);
              bmc_unsafe depth trace
            | Budget.Converged None ->
              entry.Warm.proved <- max_depth;
              bmc_safe max_depth
            | Budget.Exhausted p ->
              entry.Warm.proved <- max entry.Warm.proved p.Mc.Bmc.proved_depth;
              bmc_exhausted p.Mc.Bmc.reason p.Mc.Bmc.proved_depth max_depth))

let run_invgen ~budget circuit n =
  let aig, bad =
    match circuit with
    | `Ring -> Invgen.Engine.ring_counter ~n
    | `Mod5 -> Invgen.Engine.counter_mod5 ()
    | `Twin -> Invgen.Engine.twin_registers ~len:n
    | `Stuck -> Invgen.Engine.stuck_bit
  in
  let verdict_name = function
    | Invgen.Induction.Proved -> "proved"
    | Invgen.Induction.Cex_in_base -> "cex-in-base"
    | Invgen.Induction.Unknown -> "unknown"
    | Invgen.Induction.Aborted _ -> "aborted"
  in
  match Invgen.Engine.run ~budget aig ~bad with
  | Budget.Converged r ->
    Obs.info "%d candidates from simulation, %d proven inductive@."
      r.Invgen.Engine.candidates
      (List.length r.Invgen.Engine.proven);
    {
      verdict =
        Printf.sprintf "with invariants: %s; unaided: %s"
          (verdict_name r.Invgen.Engine.verdict)
          (verdict_name r.Invgen.Engine.verdict_unaided);
      code =
        (match r.Invgen.Engine.verdict with
        | Invgen.Induction.Proved -> 0
        | _ -> 1);
      cacheable = true;
    }
  | Budget.Exhausted p ->
    {
      verdict =
        Printf.sprintf "%s: %d candidate invariants %s, property undecided"
          (exhausted p.Invgen.Engine.reason)
          (List.length p.Invgen.Engine.survivors)
          (if p.Invgen.Engine.filtered then "proven inductive"
           else "surviving (inductiveness unproven)");
      code = 0;
      cacheable = false;
    }

let run_lstar ~budget states =
  (* target: words over {0,1} whose number of 1s is divisible by [states] *)
  let target =
    Lstar.Dfa.make ~alphabet:2 ~start:0
      ~accept:(Array.init states (fun s -> s = 0))
      ~delta:(Array.init states (fun s -> [| s; (s + 1) mod states |]))
  in
  match Lstar.Learner.learn_exact ~budget ~target () with
  | Budget.Converged (h, st) ->
    Obs.info "%d membership queries, %d equivalence queries@."
      st.Lstar.Learner.membership_queries st.Lstar.Learner.equivalence_queries;
    {
      verdict =
        Printf.sprintf "learned %d-state DFA in %d rounds" h.Lstar.Dfa.num_states
          st.Lstar.Learner.rounds;
      code = (match Lstar.Dfa.equal h target with Ok () -> 0 | Error _ -> 1);
      cacheable = true;
    }
  | Budget.Exhausted p ->
    {
      verdict =
        Printf.sprintf "%s: %d rounds, last hypothesis %s"
          (exhausted p.Lstar.Learner.reason)
          p.Lstar.Learner.stats.Lstar.Learner.rounds
          (match p.Lstar.Learner.hypothesis with
          | Some h -> Printf.sprintf "has %d states" h.Lstar.Dfa.num_states
          | None -> "none");
      code = 0;
      cacheable = false;
    }

let run ?warm ?(budget = Budget.unlimited) spec =
  match spec with
  | Deobfuscate { program; width } -> run_deobfuscate ~budget program width
  | Timing { source; bits; tau } -> run_timing ~budget source bits tau
  | Cegar { junk; bits; modulus; bad_value } ->
    run_cegar ~budget junk bits modulus bad_value
  | Bmc { system; max_depth } ->
    run_bmc ?warm ~budget ~family:(family spec) system max_depth
  | Invgen { circuit; n } -> run_invgen ~budget circuit n
  | Lstar { states } -> run_lstar ~budget states
