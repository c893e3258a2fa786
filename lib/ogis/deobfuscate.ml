module Lang = Prog.Lang
module Interp = Prog.Interp

let oracle_of_program (p : Lang.t) ins =
  let bound = List.map2 (fun x v -> (x, v)) p.Lang.inputs ins in
  List.map snd (Interp.run p bound)

type result = {
  clean : Straightline.t;
  stats : Synth.stats;
  seconds : float;
}

type failure =
  | Unrealizable of Synth.stats
  | Exhausted of Synth.partial

let run ?max_iterations ?initial_inputs ?pool ?budget ~library
    (p : Lang.t) =
  let spec =
    {
      Encode.width = p.Lang.width;
      ninputs = List.length p.Lang.inputs;
      noutputs = List.length p.Lang.outputs;
      library;
    }
  in
  let t0 = Unix.gettimeofday () in
  match
    Synth.synthesize ?max_iterations ?initial_inputs ?pool ?budget spec
      (oracle_of_program p)
  with
  | Budget.Converged (Synth.Synthesized (clean, stats)) ->
    Ok { clean; stats; seconds = Unix.gettimeofday () -. t0 }
  | Budget.Converged (Synth.Unrealizable stats) -> Error (Unrealizable stats)
  | Budget.Exhausted partial -> Error (Exhausted partial)
