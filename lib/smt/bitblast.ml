let m_term_hits = Obs.Metrics.counter "bitblast.term_cache_hits"
let m_term_misses = Obs.Metrics.counter "bitblast.term_cache_misses"
let m_formula_hits = Obs.Metrics.counter "bitblast.formula_cache_hits"
let m_formula_misses = Obs.Metrics.counter "bitblast.formula_cache_misses"

(* cross-context recipe cache traffic (see [Cnfcache]): a hit replays a
   previously recorded operator encoding instead of re-encoding it *)
let m_shared_hits = Obs.Metrics.counter "bitblast.shared_hits"
let m_shared_misses = Obs.Metrics.counter "bitblast.shared_misses"

(* clauses the top-level clausifier emits for asserted formulas; gate
   definitions are counted separately by [tseitin.clauses] *)
let m_asserted_clauses = Obs.Metrics.counter "bitblast.asserted_clauses"

type t = {
  ctx : Tseitin.t;
  tmemo : (Bv.term, Lit.t array) Hashtbl.t;
  fmemo : (Bv.formula, Lit.t) Hashtbl.t;
  vars : (string, Lit.t array) Hashtbl.t;
  bvars : (string, Lit.t) Hashtbl.t;
}

let create () =
  {
    ctx = Tseitin.create ();
    tmemo = Hashtbl.create 64;
    fmemo = Hashtbl.create 64;
    vars = Hashtbl.create 16;
    bvars = Hashtbl.create 16;
  }

let context t = t.ctx

(* a blaster over an existing context, for running the encoders inside
   [Cnfcache.record]'s scratch context *)
let scratch ctx =
  {
    ctx;
    tmemo = Hashtbl.create 4;
    fmemo = Hashtbl.create 4;
    vars = Hashtbl.create 4;
    bvars = Hashtbl.create 4;
  }

let var_wires t ~width name =
  match Hashtbl.find_opt t.vars name with
  | Some bits ->
    if Array.length bits <> width then
      invalid_arg
        (Printf.sprintf "Bitblast: variable %s used at widths %d and %d" name
           (Array.length bits) width);
    bits
  | None ->
    let bits = Array.init width (fun _ -> Tseitin.fresh t.ctx) in
    Hashtbl.add t.vars name bits;
    bits

let bool_var t name =
  match Hashtbl.find_opt t.bvars name with
  | Some l -> l
  | None ->
    let l = Tseitin.fresh t.ctx in
    Hashtbl.add t.bvars name l;
    l

let const_bits t ~width v =
  Array.init width (fun i -> Tseitin.of_bool t.ctx (v land (1 lsl i) <> 0))

(* ripple-carry addition; returns (sum bits, carry out) *)
let adder t a b cin =
  let w = Array.length a in
  let sum = Array.make w cin in
  let carry = ref cin in
  for i = 0 to w - 1 do
    let s, c = Tseitin.full_adder t.ctx a.(i) b.(i) !carry in
    sum.(i) <- s;
    carry := c
  done;
  (sum, !carry)

let negate t a =
  let w = Array.length a in
  let nota = Array.map Lit.neg a in
  let zero = const_bits t ~width:w 0 in
  fst (adder t nota zero (Tseitin.true_ t.ctx))

(* shift-and-add multiplier over [w_out] output bits; inputs are [w_in]
   wide. Used both for ordinary (truncating, w_out = w_in) multiplication
   and for the exact double-width product in the division encoding. *)
let multiplier t a b w_out =
  let w_in = Array.length a in
  let ff = Tseitin.false_ t.ctx in
  let acc = ref (Array.make w_out ff) in
  for i = 0 to min (w_in - 1) (w_out - 1) do
    (* partial product: (b << i) masked by a.(i), over w_out bits *)
    let partial =
      Array.init w_out (fun j ->
          if j < i || j - i >= w_in then ff
          else Tseitin.and2 t.ctx a.(i) b.(j - i))
    in
    acc := fst (adder t !acc partial ff)
  done;
  !acc

let mux_bits t c a b = Array.map2 (fun x y -> Tseitin.mux t.ctx c x y) a b

(* unsigned a < b, folding from LSB to MSB *)
let ult_bits t a b =
  let lt = ref (Tseitin.false_ t.ctx) in
  for i = 0 to Array.length a - 1 do
    let bit_lt = Tseitin.and2 t.ctx (Lit.neg a.(i)) b.(i) in
    let bit_eq = Tseitin.iff2 t.ctx a.(i) b.(i) in
    lt := Tseitin.or2 t.ctx bit_lt (Tseitin.and2 t.ctx bit_eq !lt)
  done;
  !lt

let eq_bits t a b =
  let acc = ref (Tseitin.true_ t.ctx) in
  for i = 0 to Array.length a - 1 do
    acc := Tseitin.and2 t.ctx !acc (Tseitin.iff2 t.ctx a.(i) b.(i))
  done;
  !acc

(* flip sign bits to reduce signed comparison to unsigned *)
let flip_msb a =
  let w = Array.length a in
  Array.mapi (fun i l -> if i = w - 1 then Lit.neg l else l) a

let stage_bits width =
  let rec go k = if 1 lsl k >= width then k else go (k + 1) in
  go 0

(* barrel shifter; [fill] supplies shifted-in bits, [dir] is the shift
   direction for one stage *)
let barrel t a amount ~fill ~shift_one =
  let w = Array.length a in
  let k = stage_bits w in
  let res = ref a in
  for i = 0 to k - 1 do
    let shifted = shift_one !res (1 lsl i) in
    res := mux_bits t amount.(i) shifted !res
  done;
  (* amount >= 2^k (hence >= w): result is all fill *)
  let high = ref (Tseitin.false_ t.ctx) in
  for i = k to Array.length amount - 1 do
    high := Tseitin.or2 t.ctx !high amount.(i)
  done;
  mux_bits t !high (Array.map (fun _ -> fill) a) !res

let shl_bits t a amount =
  let ff = Tseitin.false_ t.ctx in
  let shift_one bits n =
    Array.init (Array.length bits) (fun j -> if j < n then ff else bits.(j - n))
  in
  barrel t a amount ~fill:ff ~shift_one

let lshr_bits t a amount =
  let w = Array.length a in
  let ff = Tseitin.false_ t.ctx in
  let shift_one bits n =
    Array.init w (fun j -> if j + n >= w then ff else bits.(j + n))
  in
  barrel t a amount ~fill:ff ~shift_one

let ashr_bits t a amount =
  let w = Array.length a in
  let sign = a.(w - 1) in
  let shift_one bits n =
    Array.init w (fun j -> if j + n >= w then sign else bits.(j + n))
  in
  barrel t a amount ~fill:sign ~shift_one

let rec term t (e : Bv.term) : Lit.t array =
  match Hashtbl.find_opt t.tmemo e with
  | Some bits ->
    Obs.Metrics.incr m_term_hits;
    bits
  | None ->
    Obs.Metrics.incr m_term_misses;
    let bits = term_uncached t e in
    Hashtbl.add t.tmemo e bits;
    bits

and term_uncached t (e : Bv.term) =
  let w = Bv.width e in
  match e with
  | Bv.Const { width; value } -> const_bits t ~width value
  | Bv.Var { width; name } -> var_wires t ~width name
  | Bv.Unop (Bv.Bnot, a) -> Array.map Lit.neg (term t a)
  | Bv.Unop (Bv.Bneg, a) -> negate t (term t a)
  | Bv.Binop (op, a, b) -> binop t op (term t a) (term t b) w
  | Bv.Ite (c, a, b) ->
    let cl = formula t c in
    mux_bits t cl (term t a) (term t b)

and binop t op a b w =
  let ff = Tseitin.false_ t.ctx in
  match op with
  | Bv.Band -> Array.map2 (Tseitin.and2 t.ctx) a b
  | Bv.Bor -> Array.map2 (Tseitin.or2 t.ctx) a b
  | Bv.Bxor -> Array.map2 (Tseitin.xor2 t.ctx) a b
  | Bv.Badd -> fst (adder t a b ff)
  | Bv.Bsub -> fst (adder t a (Array.map Lit.neg b) (Tseitin.true_ t.ctx))
  | Bv.Bmul ->
    (shared t ~tag:"mul" ~w a b ~build:(fun s a b ->
         [| multiplier s a b (Array.length a) |]))
      .(0)
  | Bv.Budiv -> (shared_div t ~w a b).(0)
  | Bv.Burem -> (shared_div t ~w a b).(1)
  | Bv.Bshl ->
    (shared t ~tag:"shl" ~w a b ~build:(fun s a b -> [| shl_bits s a b |])).(0)
  | Bv.Blshr ->
    (shared t ~tag:"lshr" ~w a b ~build:(fun s a b -> [| lshr_bits s a b |]))
      .(0)
  | Bv.Bashr ->
    (shared t ~tag:"ashr" ~w a b ~build:(fun s a b -> [| ashr_bits s a b |]))
      .(0)

(* Expensive operators go through the cross-context recipe cache: the
   first encoding of (operator, width) anywhere in the process is
   recorded over fresh canonical inputs, every later one — in this
   context or any other, on any domain — replays the recorded clause
   skeleton (see [Cnfcache]). Bypassed when an input wire is constant:
   replaying the general circuit would forfeit the eager constant
   folding a direct encoding enjoys (e.g. multiplication by a constant
   collapses most partial products). *)
and shared t ~tag ~w a b ~build =
  let symbolic l =
    not (l = Tseitin.true_ t.ctx || l = Tseitin.false_ t.ctx)
  in
  if w < 2 || not (Array.for_all symbolic a && Array.for_all symbolic b)
  then build t a b
  else begin
    let key = Printf.sprintf "%s:%d" tag w in
    let r =
      match Cnfcache.find ~key with
      | Some r ->
        Obs.Metrics.incr m_shared_hits;
        r
      | None ->
        Obs.Metrics.incr m_shared_misses;
        let r =
          Cnfcache.record ~n_inputs:(2 * w) (fun ctx inputs ->
              build (scratch ctx) (Array.sub inputs 0 w)
                (Array.sub inputs w w))
        in
        Cnfcache.install ~key r
    in
    Cnfcache.replay r t.ctx (Array.append a b)
  end

(* one recipe covers both quotient and remainder, like [divider] *)
and shared_div t ~w a b =
  shared t ~tag:"div" ~w a b ~build:(fun s a b ->
      let q, r = divider s a b in
      [| q; r |])

(* Algebraic division: introduce fresh q, r with
     b = 0  ->  q = all-ones /\ r = a
     b <> 0 ->  q*b + r = a (exactly, via a 2w-bit product) /\ r < b.
   q and r are functionally determined, so asserting these definitional
   constraints at the top level is sound even under negation. *)
and divider t a b =
  let w = Array.length a in
  let ctx = t.ctx in
  let q = Array.init w (fun _ -> Tseitin.fresh ctx) in
  let r = Array.init w (fun _ -> Tseitin.fresh ctx) in
  let b_zero = eq_bits t b (const_bits t ~width:w 0) in
  (* zero-divisor case *)
  let q_ones = eq_bits t q (const_bits t ~width:w ((1 lsl w) - 1)) in
  let r_eq_a = eq_bits t r a in
  let zero_case = Tseitin.and2 ctx q_ones r_eq_a in
  (* nonzero case: exact 2w-bit product *)
  let prod = multiplier t q b (2 * w) in
  let r_ext =
    Array.init (2 * w) (fun i -> if i < w then r.(i) else Tseitin.false_ ctx)
  in
  let sum, carry = adder t prod r_ext (Tseitin.false_ ctx) in
  let low_eq =
    eq_bits t (Array.sub sum 0 w) a
  in
  let high_zero =
    let acc = ref (Tseitin.true_ ctx) in
    for i = w to (2 * w) - 1 do
      acc := Tseitin.and2 ctx !acc (Lit.neg sum.(i))
    done;
    Tseitin.and2 ctx !acc (Lit.neg carry)
  in
  let r_lt_b = ult_bits t r b in
  let nz_case =
    Tseitin.and_list ctx [ low_eq; high_zero; r_lt_b ]
  in
  (* permanent: the q/r wires are memoized with the term, so their
     definition must survive any scope pop *)
  Tseitin.assert_permanent ctx (Tseitin.mux ctx b_zero zero_case nz_case);
  (q, r)

and formula t (f : Bv.formula) : Lit.t =
  match Hashtbl.find_opt t.fmemo f with
  | Some l ->
    Obs.Metrics.incr m_formula_hits;
    l
  | None ->
    Obs.Metrics.incr m_formula_misses;
    let l = formula_uncached t f in
    Hashtbl.add t.fmemo f l;
    l

and formula_uncached t (f : Bv.formula) =
  let ctx = t.ctx in
  match f with
  | Bv.Btrue -> Tseitin.true_ ctx
  | Bv.Bfalse -> Tseitin.false_ ctx
  | Bv.Pvar name -> bool_var t name
  | Bv.Eq (a, b) -> eq_bits t (term t a) (term t b)
  | Bv.Ult (a, b) -> ult_bits t (term t a) (term t b)
  | Bv.Ule (a, b) -> Lit.neg (ult_bits t (term t b) (term t a))
  | Bv.Slt (a, b) -> ult_bits t (flip_msb (term t a)) (flip_msb (term t b))
  | Bv.Sle (a, b) ->
    Lit.neg (ult_bits t (flip_msb (term t b)) (flip_msb (term t a)))
  | Bv.Fnot g -> Lit.neg (formula t g)
  | Bv.Fand (a, b) -> Tseitin.and2 ctx (formula t a) (formula t b)
  | Bv.For (a, b) -> Tseitin.or2 ctx (formula t a) (formula t b)
  | Bv.Fxor (a, b) -> Tseitin.xor2 ctx (formula t a) (formula t b)

(* Asserting a formula's top-level structure as clauses, instead of the
   unit clause of its Tseitin literal, leaves the search no gate chain
   to walk for that structure; whatever lies below it keeps its
   memoized Tseitin encoding. [guard] holds the literals every clause
   of the current subformula carries. Clauses a constant-true wire
   already satisfies are not emitted. *)
let assert_clauses t ~emit f =
  let clause c =
    if not (List.mem (Tseitin.true_ t.ctx) c) then begin
      Obs.Metrics.incr m_asserted_clauses;
      emit c
    end
  in
  let structured = function
    | Bv.Fand _ | Bv.Eq _ | Bv.Fnot (Bv.For _) -> true
    | _ -> false
  in
  let rec go guard (f : Bv.formula) =
    match f with
    | Bv.Fand (a, b) ->
      go guard a;
      go guard b
    | Bv.Fnot (Bv.For (a, b)) ->
      go guard (Bv.fnot a);
      go guard (Bv.fnot b)
    | Bv.Eq (a, b) ->
      Array.iter2
        (fun x y ->
          clause (Lit.neg x :: y :: guard);
          clause (x :: Lit.neg y :: guard))
        (term t a) (term t b)
    | Bv.For (a, b) when structured b -> go (formula t a :: guard) b
    | Bv.For (a, b) when structured a -> go (formula t b :: guard) a
    | Bv.For (a, b) -> clause (formula t a :: formula t b :: guard)
    | f -> clause (formula t f :: guard)
  in
  go [] f

let assert_formula t f = assert_clauses t ~emit:(Tseitin.assert_clause t.ctx) f

let value_of t name =
  match Hashtbl.find_opt t.vars name with
  | None -> None
  | Some bits ->
    let v = ref 0 in
    Array.iteri
      (fun i l -> if Tseitin.lit_of_model t.ctx l then v := !v lor (1 lsl i))
      bits;
    Some !v

let bool_value_of t name =
  Option.map (Tseitin.lit_of_model t.ctx) (Hashtbl.find_opt t.bvars name)

let model_env t =
  {
    Bv.bv = (fun name -> Option.value (value_of t name) ~default:0);
    Bv.bool = (fun name -> Option.value (bool_value_of t name) ~default:false);
  }

let check ?(limits = Sat.no_limits) ?(assumptions = []) t =
  let s = Tseitin.solver t.ctx in
  Sat.set_limits s limits;
  Sat.solve_with_assumptions s assumptions
