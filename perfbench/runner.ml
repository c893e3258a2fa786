(* In-process job execution through the libraries' public entry points. *)

module S = Jobstream
module J = Server.Jobs

let job_deadline = 30.0
let budget () = Budget.limited ~seconds:job_deadline ()

type answer =
  | Program of Ogis.Straightline.t
  | Verdict of { verdict : string; code : int }
  | Failed of string

let exhausted v = String.length v >= 9 && String.sub v 0 9 = "EXHAUSTED"

let run_exn = function
  | S.Hd { name; width } -> (
    (* Hd_suite.run takes no budget: its deadline is checked afterwards *)
    let o = Ogis.Hd_suite.run ~width (Ogis.Hd_suite.find name) in
    match o.Ogis.Hd_suite.result with
    | Ok (p, _) when o.Ogis.Hd_suite.verified -> Program p
    | Ok _ -> Failed "synthesized program failed its SMT verification"
    | Error _ -> Failed "synthesis failed or exhausted")
  | S.Deob { program; width } -> (
    let obf, library =
      match program with
      | `P1 -> (Prog.Benchmarks.interchange_obs_w ~width, Ogis.Component.fig8_p1)
      | `P2 -> (Prog.Benchmarks.multiply45_obs_w ~width, Ogis.Component.fig8_p2)
    in
    match Ogis.Deobfuscate.run ~budget:(budget ()) ~library obf with
    | Ok r -> Program r.Ogis.Deobfuscate.clean
    | Error (Ogis.Deobfuscate.Unrealizable _) -> Failed "unrealizable"
    | Error (Ogis.Deobfuscate.Exhausted _) -> Failed "budget exhausted")
  | S.Spec s ->
    let o = J.run ~budget:(budget ()) s in
    if exhausted o.J.verdict then Failed o.J.verdict
    else Verdict { verdict = o.J.verdict; code = o.J.code }

let run job = try run_exn job with e -> Failed (Printexc.to_string e)

let check job answer =
  match job, answer with
  | _, Failed msg -> Error msg
  | S.Hd { name; width }, Program p -> Check.hd ~name ~width p
  | S.Deob { program; width }, Program p -> Check.deob ~program ~width p
  | S.Spec s, Verdict { verdict; code } -> Check.spec s ~verdict ~code
  | _ -> Error "answer of the wrong shape"
