module Bv = Smt.Bv

type benchmark = {
  name : string;
  description : string;
  library : width:int -> Component.t list;
  arity : int;
  reference : width:int -> int list -> int list;
  spec : width:int -> Bv.term list -> Bv.term list;
}

let mask ~width = (1 lsl width) - 1
let m ~width v = v land mask ~width
let one1 f ~width = function [ x ] -> [ m ~width (f ~width x) ] | _ -> invalid_arg "arity"
let one2 f ~width = function
  | [ x; y ] -> [ m ~width (f ~width x y) ]
  | _ -> invalid_arg "arity"

let s1 f ~width = function [ x ] -> [ (f ~width x : Bv.term) ] | _ -> invalid_arg "arity"
let s2 f ~width = function
  | [ x; y ] -> [ (f ~width x y : Bv.term) ]
  | _ -> invalid_arg "arity"

let c ~width v = Bv.const ~width v

let all =
  [
    {
      name = "hd01-turn-off-rightmost-1";
      description = "x & (x - 1)";
      library = (fun ~width:_ -> [ Component.dec; Component.and_ ]);
      arity = 1;
      reference = one1 (fun ~width:_ x -> x land (x - 1));
      spec = s1 (fun ~width x -> Bv.band x (Bv.bsub x (c ~width 1)));
    };
    {
      name = "hd02-test-power-of-2-mask";
      description = "x & (x + 1)  (0 iff x is 2^n - 1)";
      library = (fun ~width:_ -> [ Component.inc; Component.and_ ]);
      arity = 1;
      reference = one1 (fun ~width:_ x -> x land (x + 1));
      spec = s1 (fun ~width x -> Bv.band x (Bv.badd x (c ~width 1)));
    };
    {
      name = "hd03-isolate-rightmost-1";
      description = "x & -x";
      library = (fun ~width:_ -> [ Component.neg; Component.and_ ]);
      arity = 1;
      reference = one1 (fun ~width:_ x -> x land -x);
      spec = s1 (fun ~width:_ x -> Bv.band x (Bv.bneg x));
    };
    {
      name = "hd04-mask-trailing-0s";
      description = "~x & (x - 1)";
      library = (fun ~width:_ -> [ Component.not_; Component.dec; Component.and_ ]);
      arity = 1;
      reference = one1 (fun ~width:_ x -> lnot x land (x - 1));
      spec = s1 (fun ~width x -> Bv.band (Bv.bnot x) (Bv.bsub x (c ~width 1)));
    };
    {
      name = "hd05-propagate-rightmost-1";
      description = "x | (x - 1)";
      library = (fun ~width:_ -> [ Component.dec; Component.or_ ]);
      arity = 1;
      reference = one1 (fun ~width:_ x -> x lor (x - 1));
      spec = s1 (fun ~width x -> Bv.bor x (Bv.bsub x (c ~width 1)));
    };
    {
      name = "hd06-turn-on-rightmost-0";
      description = "x | (x + 1)";
      library = (fun ~width:_ -> [ Component.inc; Component.or_ ]);
      arity = 1;
      reference = one1 (fun ~width:_ x -> x lor (x + 1));
      spec = s1 (fun ~width x -> Bv.bor x (Bv.badd x (c ~width 1)));
    };
    {
      name = "hd07-isolate-rightmost-0";
      description = "~x & (x + 1)";
      library = (fun ~width:_ -> [ Component.not_; Component.inc; Component.and_ ]);
      arity = 1;
      reference = one1 (fun ~width:_ x -> lnot x land (x + 1));
      spec = s1 (fun ~width x -> Bv.band (Bv.bnot x) (Bv.badd x (c ~width 1)));
    };
    {
      name = "hd08-average-no-overflow";
      description = "(x & y) + ((x ^ y) >> 1)";
      library =
        (fun ~width:_ ->
          [ Component.and_; Component.xor; Component.lshr_const 1; Component.add ]);
      arity = 2;
      reference = one2 (fun ~width:_ x y -> (x land y) + ((x lxor y) lsr 1));
      spec =
        s2 (fun ~width x y ->
            Bv.badd (Bv.band x y) (Bv.blshr (Bv.bxor x y) (c ~width 1)));
    };
    {
      name = "hd09-xor-difference";
      description = "(x | y) - (x & y)  (= x ^ y)";
      library = (fun ~width:_ -> [ Component.or_; Component.and_; Component.sub ]);
      arity = 2;
      reference = one2 (fun ~width:_ x y -> (x lor y) - (x land y));
      spec = s2 (fun ~width:_ x y -> Bv.bxor x y);
    };
    {
      name = "hd10-not-equal-01";
      description = "1 <= (x ^ y) ? 1 : 0  (= x <> y as 0/1)";
      library = (fun ~width -> [ Component.xor; Component.ule01; Component.const ~width 1 ]);
      arity = 2;
      reference = one2 (fun ~width:_ x y -> if x <> y then 1 else 0);
      spec =
        s2 (fun ~width x y ->
            Bv.ite (Bv.eq x y) (c ~width 0) (c ~width 1));
    };
  ]

let find name = List.find (fun b -> b.name = name) all

type outcome = {
  benchmark : benchmark;
  result :
    (Straightline.t * Synth.stats, (Synth.outcome, Synth.partial) Budget.outcome)
    result;
  verified : bool;
  seconds : float;
}

let run ?(width = 8) ?budget b =
  let spec_record =
    { Encode.width; ninputs = b.arity; noutputs = 1; library = b.library ~width }
  in
  let t0 = Unix.gettimeofday () in
  let result =
    match Synth.synthesize ?budget spec_record (b.reference ~width) with
    | Budget.Converged (Synth.Synthesized (p, stats)) -> Ok (p, stats)
    | other -> Error other
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let verified =
    match result with
    | Error _ -> false
    | Ok (p, _) ->
      Synth.verify_against spec_record p ~spec_fn:(b.spec ~width) = Ok ()
  in
  { benchmark = b; result; verified; seconds }
