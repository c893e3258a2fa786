(* Tests for GameTime: exact rational linear algebra, feasible basis path
   extraction (including the paper's "9 basis paths for modexp" claim),
   the game-theoretic learner, and end-to-end WCET analysis against the
   cycle-accurate platform. *)

module Q = Gametime.Rational
module Linalg = Gametime.Linalg
module Basis = Gametime.Basis
module Learner = Gametime.Learner
module Gt = Gametime.Analysis
module Lang = Prog.Lang
module Cfg = Prog.Cfg
module Paths = Prog.Paths
module Unroll = Prog.Unroll
module Testgen = Prog.Testgen
module B = Prog.Benchmarks
module Platform = Microarch.Platform

(* ------------------------------------------------------------------ *)
(* Rationals                                                           *)
(* ------------------------------------------------------------------ *)

let test_rational_basics () =
  let q a b = Q.make a b in
  Alcotest.(check bool) "1/2 + 1/3 = 5/6" true (Q.equal (Q.add (q 1 2) (q 1 3)) (q 5 6));
  Alcotest.(check bool) "normalized" true (Q.equal (q 2 4) (q 1 2));
  Alcotest.(check bool) "sign in denominator" true (Q.equal (q 1 (-2)) (q (-1) 2));
  Alcotest.(check bool) "mul" true (Q.equal (Q.mul (q 2 3) (q 3 4)) (q 1 2));
  Alcotest.(check bool) "div" true (Q.equal (Q.div (q 1 2) (q 1 4)) (Q.of_int 2));
  Alcotest.(check int) "compare" (-1) (Q.compare (q 1 3) (q 1 2));
  Alcotest.check_raises "zero denominator"
    (Invalid_argument "Rational.make: zero denominator") (fun () ->
      ignore (q 1 0))

let gen_q =
  QCheck2.Gen.(
    let* n = int_range (-20) 20 and* d = int_range 1 20 in
    return (Q.make n d))

let prop_rational_field =
  QCheck2.Test.make ~name:"rational field laws" ~count:300
    ~print:(fun (a, b, c) -> Format.asprintf "%a %a %a" Q.pp a Q.pp b Q.pp c)
    QCheck2.Gen.(triple gen_q gen_q gen_q)
    (fun (a, b, c) ->
      Q.equal (Q.add a b) (Q.add b a)
      && Q.equal (Q.add (Q.add a b) c) (Q.add a (Q.add b c))
      && Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c))
      && Q.equal (Q.sub a a) Q.zero
      && (Q.is_zero b || Q.equal (Q.mul (Q.div a b) b) a))

(* ------------------------------------------------------------------ *)
(* Linear algebra                                                      *)
(* ------------------------------------------------------------------ *)

let test_span_rank () =
  let s = Linalg.empty_span ~dim:3 in
  Alcotest.(check bool) "e1 independent" true
    (Linalg.add_if_independent s [| 1; 0; 0 |]);
  Alcotest.(check bool) "e1+e2 independent" true
    (Linalg.add_if_independent s [| 1; 1; 0 |]);
  Alcotest.(check bool) "e2 dependent" false
    (Linalg.add_if_independent s [| 0; 1; 0 |]);
  Alcotest.(check bool) "e3 independent" true
    (Linalg.add_if_independent s [| 1; 1; 1 |]);
  Alcotest.(check int) "rank 3" 3 (Linalg.rank s);
  Alcotest.(check bool) "anything now in span" true
    (Linalg.in_span s [| 7; -2; 13 |])

let test_solve_exact () =
  let basis = [ [| 1; 0; 1 |]; [| 0; 1; 1 |] ] in
  let f = Linalg.factor basis in
  (match Linalg.solve f [| 2; 3; 5 |] with
  | Some coeffs ->
    Alcotest.(check bool) "coeff 0 = 2" true (Q.equal coeffs.(0) (Q.of_int 2));
    Alcotest.(check bool) "coeff 1 = 3" true (Q.equal coeffs.(1) (Q.of_int 3))
  | None -> Alcotest.fail "solvable system reported unsolvable");
  match Linalg.solve f [| 1; 0; 0 |] with
  | Some _ -> Alcotest.fail "target outside span accepted"
  | None -> ()

let pp_matrix basis =
  String.concat ","
    (List.map
       (fun v ->
         "[" ^ String.concat ";" (Array.to_list (Array.map string_of_int v)) ^ "]")
       basis)

(* B·x = t exactly, with the columns of B given as [basis] *)
let reproduces basis x target =
  let recon = Array.make (Array.length target) Q.zero in
  List.iteri
    (fun j v ->
      Array.iteri
        (fun i b -> recon.(i) <- Q.add recon.(i) (Q.mul x.(j) (Q.of_int b)))
        v)
    basis;
  Array.for_all2 (fun r t -> Q.equal r (Q.of_int t)) recon target

let prop_solve_recovers_combination =
  let gen =
    QCheck2.Gen.(
      let* dim = int_range 2 6 in
      let* k = int_range 1 4 in
      let vec = array_size (return dim) (int_range 0 3) in
      let* basis = list_size (return k) vec in
      let* coeffs = list_size (return k) (int_range (-3) 3) in
      return (basis, coeffs))
  in
  QCheck2.Test.make ~name:"solve recovers linear combinations" ~count:300
    ~print:(fun (basis, coeffs) ->
      Printf.sprintf "basis=%s coeffs=%s" (pp_matrix basis)
        (String.concat ";" (List.map string_of_int coeffs)))
    gen
    (fun (basis, coeffs) ->
      let dim = Array.length (List.hd basis) in
      let target = Array.make dim 0 in
      List.iter2
        (fun v c -> Array.iteri (fun i x -> target.(i) <- target.(i) + (c * x)) v)
        basis coeffs;
      match Linalg.solve (Linalg.factor basis) target with
      | None -> false
      | Some sol ->
        (* the solution need not equal [coeffs] (basis may be dependent);
           verify it reproduces the target instead *)
        reproduces basis sol target)

(* columns that are integer combinations of earlier ones make B
   rank-deficient, so elimination meets free columns; the target is
   either a combination of the columns or arbitrary *)
let prop_solve_agrees_with_span =
  let gen =
    QCheck2.Gen.(
      let* dim = int_range 1 5 in
      let vec = array_size (return dim) (int_range (-3) 3) in
      let* k = int_range 1 5 in
      let* seeds = list_size (return k) vec in
      let* mix = list_size (return k) (list_size (return k) (int_range (-2) 2)) in
      let* dependent = list_size (return k) bool in
      let cols = Array.of_list seeds in
      List.iteri
        (fun j (coeffs, dep) ->
          if dep && j > 0 then begin
            let w = Array.make dim 0 in
            List.iteri
              (fun j' c ->
                if j' < j then
                  Array.iteri (fun i x -> w.(i) <- w.(i) + (c * x)) cols.(j'))
              coeffs;
            cols.(j) <- w
          end)
        (List.combine mix dependent);
      let basis = Array.to_list cols in
      let* coeffs = list_size (return k) (int_range (-2) 2) in
      let* combine = bool in
      let* target =
        if combine then begin
          let t = Array.make dim 0 in
          List.iter2
            (fun v c -> Array.iteri (fun i x -> t.(i) <- t.(i) + (c * x)) v)
            basis coeffs;
          return t
        end
        else vec
      in
      return (basis, target))
  in
  QCheck2.Test.make ~name:"solve agrees with in_span on dependent columns"
    ~count:500
    ~print:(fun (basis, target) ->
      Printf.sprintf "basis=%s target=%s" (pp_matrix basis) (pp_matrix [ target ]))
    gen
    (fun (basis, target) ->
      let span = Linalg.empty_span ~dim:(Array.length target) in
      List.iter (fun v -> ignore (Linalg.add_if_independent span v)) basis;
      match Linalg.solve (Linalg.factor basis) target with
      | Some x -> Linalg.in_span span target && reproduces basis x target
      | None -> not (Linalg.in_span span target))

(* ------------------------------------------------------------------ *)
(* Basis path extraction                                               *)
(* ------------------------------------------------------------------ *)

(* every run in this suite is unbudgeted, so exhaustion is a failure *)
let conv = function
  | Budget.Converged x -> x
  | Budget.Exhausted _ -> Alcotest.fail "unbudgeted run exhausted"

let is_feasible u g path =
  match Testgen.feasible u g path with
  | `Test _ -> true
  | `Infeasible | `Unknown _ -> false

let bitcount_setup bits =
  let u = Unroll.unroll ~bound:bits (B.bitcount ~bits ()) in
  let g = Cfg.of_program u in
  (u, g)

let test_basis_bitcount () =
  let u, g = bitcount_setup 4 in
  let basis = conv (Basis.extract u g) in
  (* one diamond per iteration: affine dimension bits+1 *)
  Alcotest.(check int) "basis size" 5 (List.length basis);
  let span = Linalg.empty_span ~dim:(Cfg.num_edges g) in
  List.iter
    (fun b ->
      Alcotest.(check bool) "vectors independent" true
        (Linalg.add_if_independent span b.Basis.vector))
    basis;
  List.iter
    (fun b ->
      Alcotest.(check bool) "test drives path" true
        (Testgen.check_drives u g b.Basis.path b.Basis.test))
    basis

let test_basis_spans_feasible_paths () =
  let u, g = bitcount_setup 4 in
  let basis = conv (Basis.extract u g) in
  let f = Linalg.factor (List.map (fun b -> b.Basis.vector) basis) in
  Paths.enumerate g
  |> Seq.iter (fun path ->
         if is_feasible u g path then
           match Linalg.solve f (Paths.vector g path) with
           | Some _ -> ()
           | None -> Alcotest.fail "feasible path outside basis span")

(* ------------------------------------------------------------------ *)
(* Live paths against the structural references                        *)
(* ------------------------------------------------------------------ *)

(* Every entry→exit path of the DAG, dead edges included, in DFS order:
   what [Paths.enumerate] walked before it followed only live edges. *)
let structural_paths (g : Cfg.t) =
  let rec from node acc () =
    if node = g.Cfg.exit_ then Seq.Cons (List.rev acc, Seq.empty)
    else
      List.fold_right Seq.append
        (List.map
           (fun (e : Cfg.edge) -> from e.Cfg.dst (e.Cfg.id :: acc))
           g.Cfg.succ.(node))
        Seq.empty ()
  in
  from g.Cfg.entry []

(* The greedy extraction over every structural path, stopped only at the
   structural bound [m - n + 2]: the basis [Basis.extract] must keep. *)
let reference_basis u (g : Cfg.t) =
  let span = Linalg.empty_span ~dim:(Cfg.num_edges g) in
  let bound = Cfg.num_edges g - g.Cfg.nnodes + 2 in
  let rec go acc seq =
    if Linalg.rank span >= bound then List.rev acc
    else
      match seq () with
      | Seq.Nil -> List.rev acc
      | Seq.Cons (path, rest) ->
        let v = Paths.vector g path in
        if (not (Linalg.in_span span v)) && is_feasible u g path then begin
          ignore (Linalg.add_if_independent span v);
          go (path :: acc) rest
        end
        else go acc rest
  in
  go [] (structural_paths g)

(* the basis paths of modexp with the base pinned, as [Analysis.analyze]
   extracts them; recorded on the structural enumeration. Each width
   lists the exponent each basis path drives (its low [bits] bits are
   fixed by the path) and the digest of the edge lists *)
let modexp_basis bits =
  let p = B.modexp ~bits () in
  let u = Unroll.unroll ~bound:bits p in
  let g = Cfg.of_program u in
  let pin = Smt.Bv.(eq (var ~width:16 "base") (const ~width:16 123)) in
  (g, conv (Basis.extract ~assuming:pin u g))

let edge_list path = String.concat ";" (List.map string_of_int path)

let test_modexp_basis_pinned () =
  let pinned =
    [
      (3, [ 7; 3; 5; 6 ], "6f6bc937ad9f75c396e9cbef0a9ddbb7");
      (4, [ 15; 7; 11; 13; 14 ], "d05dba069a7c83e3b1c6f7d26c67d7b8");
      (5, [ 31; 15; 23; 27; 29; 30 ], "e5837eda4f24038a384d75d4dcdeb2af");
      (6, [ 63; 31; 47; 55; 59; 61; 62 ], "72e3e111fdedcc327f06be601e5c823e");
      ( 7,
        [ 127; 63; 95; 111; 119; 123; 125; 126 ],
        "b70454740f83865993b12177f8d401e3" );
      ( 8,
        [ 255; 127; 191; 223; 239; 247; 251; 253; 254 ],
        "f2103604a77d62e9330572e7cef9dfdb" );
      ( 9,
        [ 511; 255; 383; 447; 479; 495; 503; 507; 509; 510 ],
        "6fc895db569a151d6ad6672c97740578" );
      ( 10,
        [ 1023; 511; 767; 895; 959; 991; 1007; 1015; 1019; 1021; 1022 ],
        "4e5169bbbce21c5a46f484941074183d" );
      ( 11,
        [ 2047; 1023; 1535; 1791; 1919; 1983; 2015; 2031; 2039; 2043; 2045;
          2046 ],
        "f3553e1ee5dd3e4d060e6c1490495957" );
      ( 12,
        [ 4095; 2047; 3071; 3583; 3839; 3967; 4031; 4063; 4079; 4087; 4091;
          4093; 4094 ],
        "eccfd62476ec16508dc389462641a5be" );
    ]
  in
  List.iter
    (fun (bits, exps, digest) ->
      let _, basis = modexp_basis bits in
      let name = Printf.sprintf "modexp %d bits" bits in
      let edges = List.map (fun b -> edge_list b.Basis.path) basis in
      Alcotest.(check (list int)) (name ^ ": exponents") exps
        (List.map
           (fun b -> List.assoc "exp" b.Basis.test land ((1 lsl bits) - 1))
           basis);
      Alcotest.(check string) (name ^ ": edge lists") digest
        (Digest.to_hex (Digest.string (String.concat "|" edges)));
      if bits = 3 then
        Alcotest.(check (list string)) "modexp 3 bits: the edge lists"
          [
            "0;1;2;3;4;5;7;9;10;11;12;13;15;17;18;19;20;21;23;25;26;27;29;32;35";
            "0;1;2;3;4;5;7;9;10;11;12;13;15;17;18;19;22;24;25;26;27;29;32;35";
            "0;1;2;3;4;5;7;9;10;11;14;16;17;18;19;20;21;23;25;26;27;29;32;35";
            "0;1;2;3;6;8;9;10;11;12;13;15;17;18;19;20;21;23;25;26;27;29;32;35";
          ]
          edges)
    pinned

(* modexp's feasible paths are exactly its live ones, so its basis
   fills the live rank bound and extraction stops there *)
let test_modexp_stops_at_live_bound () =
  for bits = 3 to 12 do
    let g, basis = modexp_basis bits in
    Alcotest.(check int)
      (Printf.sprintf "modexp %d bits: basis fills the live bound" bits)
      (Basis.rank_bound g) (List.length basis);
    Alcotest.(check int)
      (Printf.sprintf "modexp %d bits: live paths" bits)
      (1 lsl bits) (Paths.count g)
  done

(* Random small programs: loops unrolled, guards over a mix of
   constants, locals (which start at 0) and inputs, so that some guards
   fold and some need the oracle. *)
let gen_program =
  let open QCheck2.Gen in
  let width = 4 in
  let inputs = [ "a"; "b" ] and locals = [ "x"; "y" ] in
  let var = oneofl (inputs @ locals) in
  let leaf =
    oneof
      [
        map (fun v -> Smt.Bv.const ~width v) (int_range 0 15);
        map (fun x -> Smt.Bv.var ~width x) var;
      ]
  in
  let term =
    fix (fun self d ->
        if d = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              ( 3,
                let* op =
                  oneofl
                    Smt.Bv.[ badd; bsub; band; bor; bxor; bmul; blshr; burem ]
                in
                let* l = self (d - 1) and* r = self (d - 1) in
                return (op l r) );
            ])
  in
  let guard =
    fix (fun self d ->
        let atom =
          let* cmp = oneofl Smt.Bv.[ eq; neq; ult; ule; slt ] in
          let* l = term 1 and* r = term 1 in
          return (cmp l r)
        in
        if d = 0 then atom
        else
          frequency
            [
              (4, atom);
              (1, map Smt.Bv.fnot (self (d - 1)));
              ( 1,
                let* l = self (d - 1) and* r = self (d - 1) in
                return (Smt.Bv.fand l r) );
            ])
  in
  let assign =
    let* x = oneofl (locals @ locals @ inputs) and* t = term 2 in
    return (Lang.Assign (x, t))
  in
  let stmt =
    fix (fun self d ->
        let block = list_size (1 -- 2) (self (d - 1)) in
        if d = 0 then assign
        else
          frequency
            [
              (2, assign);
              ( 3,
                let* c = guard 1 and* a = block
                and* b = list_size (0 -- 1) (self (d - 1)) in
                return (Lang.If (c, a, b)) );
              ( 2,
                let* c = guard 1 and* body = block in
                return (Lang.While (c, body)) );
              (1, map (fun c -> Lang.Assume c) (guard 1));
            ])
  in
  let* body = list_size (2 -- 5) (stmt 2) and* bound = int_range 1 3 in
  let p = Lang.make ~name:"random" ~width ~inputs ~outputs:[ "x" ] body in
  return (Unroll.unroll ~bound p)

let prop_live_paths_match_reference =
  QCheck2.Test.make ~count:300
    ~name:"live paths and basis match the structural references"
    ~print:(Format.asprintf "%a" Lang.pp) gen_program
    (fun u ->
      let g = Cfg.of_program u in
      let structural = List.of_seq (Seq.take 65 (structural_paths g)) in
      QCheck2.assume (List.length structural <= 64);
      let feasible = List.filter (is_feasible u g) structural in
      let live = List.of_seq (Paths.enumerate g) in
      (* every live path is structural, and every dropped one infeasible *)
      let live_feasible =
        List.filter
          (fun path ->
            if not (List.mem path structural) then
              QCheck2.Test.fail_reportf "live path [%s] is not structural"
                (edge_list path);
            List.mem path feasible)
          live
      in
      if live_feasible <> feasible then
        QCheck2.Test.fail_reportf
          "feasible live paths [%s] differ from the feasible structural \
           paths [%s]"
          (String.concat " | " (List.map edge_list live_feasible))
          (String.concat " | " (List.map edge_list feasible));
      Paths.count g = List.length live
      && List.map (fun b -> b.Basis.path) (conv (Basis.extract u g))
         = reference_basis u g)

let test_modexp_nine_basis_paths () =
  (* the paper's Section 3.3 headline: 256 paths, 9 basis paths *)
  let u = Unroll.unroll ~bound:8 (B.modexp ()) in
  let g = Cfg.of_program u in
  let basis = conv (Basis.extract u g) in
  Alcotest.(check int) "9 basis paths" 9 (List.length basis)

(* ------------------------------------------------------------------ *)
(* Learner: exactness on a synthetically linear platform               *)
(* ------------------------------------------------------------------ *)

(* a platform whose time is exactly a fixed weight vector dotted with the
   executed path's edge vector: the structure hypothesis holds with
   pi = 0, so prediction must be exact *)
let linear_platform u g weights =
  let feasible =
    Paths.enumerate g
    |> Seq.filter (is_feasible u g)
    |> List.of_seq
  in
  fun inputs ->
    let path =
      List.find (fun path -> Testgen.check_drives u g path inputs) feasible
    in
    List.fold_left (fun acc e -> acc + weights.(e)) 0 path

let test_learner_exact_on_linear_platform () =
  let u, g = bitcount_setup 4 in
  let m = Cfg.num_edges g in
  let weights = Array.init m (fun i -> 1 + ((i * 7) mod 13)) in
  let platform = linear_platform u g weights in
  let basis = conv (Basis.extract u g) in
  let model = Learner.learn ~seed:42 ~platform basis in
  Paths.enumerate g
  |> Seq.iter (fun path ->
         if is_feasible u g path then begin
           let expected =
             float_of_int (List.fold_left (fun a e -> a + weights.(e)) 0 path)
           in
           match Learner.predict model (Paths.vector g path) with
           | None -> Alcotest.fail "feasible path not predictable"
           | Some got ->
             Alcotest.(check (float 1e-6)) "exact prediction" expected got
         end)

(* ------------------------------------------------------------------ *)
(* Barycentric spanner                                                 *)
(* ------------------------------------------------------------------ *)

module Spanner = Gametime.Spanner

let feasible_with_tests u g =
  Paths.enumerate g
  |> Seq.filter_map (fun path ->
         match Testgen.feasible u g path with
         | `Test test -> Some (path, test)
         | `Infeasible | `Unknown _ -> None)
  |> List.of_seq

let test_spanner_coordinates () =
  let u, g = bitcount_setup 3 in
  let basis = conv (Basis.extract u g) in
  (* each basis vector has unit coordinates in the basis *)
  List.iteri
    (fun i b ->
      match Spanner.coordinates basis b.Basis.vector with
      | None -> Alcotest.fail "basis vector outside its own span"
      | Some co ->
        Array.iteri
          (fun j x ->
            Alcotest.(check (float 1e-9))
              "unit coordinate"
              (if i = j then 1.0 else 0.0)
              x)
          co)
    basis

let test_spanner_two_spanner () =
  let u, g = bitcount_setup 4 in
  let basis = conv (Basis.extract u g) in
  let candidates = feasible_with_tests u g in
  let spanner = Spanner.barycentric basis ~candidates g in
  Alcotest.(check int) "size preserved" (List.length basis)
    (List.length spanner);
  let q = Spanner.max_coordinate spanner ~candidates g in
  Alcotest.(check bool)
    (Printf.sprintf "c-spanner quality %.2f <= 2" q)
    true (q <= 2.0 +. 1e-6);
  (* the spanner must still span every feasible path *)
  List.iter
    (fun (path, _) ->
      if Spanner.coordinates spanner (Paths.vector g path) = None then
        Alcotest.fail "spanner lost span")
    candidates

let test_spanner_no_worse_than_greedy () =
  let u, g = bitcount_setup 4 in
  let basis = conv (Basis.extract u g) in
  let candidates = feasible_with_tests u g in
  let spanner = Spanner.barycentric basis ~candidates g in
  Alcotest.(check bool) "max coordinate not increased" true
    (Spanner.max_coordinate spanner ~candidates g
    <= Spanner.max_coordinate basis ~candidates g +. 1e-6)

let test_spanner_prediction_still_exact () =
  let u, g = bitcount_setup 4 in
  let m = Cfg.num_edges g in
  let weights = Array.init m (fun i -> 1 + ((i * 5) mod 11)) in
  let platform = linear_platform u g weights in
  let t = conv (Gt.analyze ~bound:4 ~seed:5 ~platform (B.bitcount ())) in
  let t = Gt.refine_with_spanner ~seed:5 ~platform t in
  Paths.enumerate g
  |> Seq.iter (fun path ->
         if is_feasible u g path then begin
           let expected =
             float_of_int (List.fold_left (fun a e -> a + weights.(e)) 0 path)
           in
           match Gt.predict_path t path with
           | None -> Alcotest.fail "path not predictable after refinement"
           | Some got ->
             Alcotest.(check (float 1e-6)) "exact prediction" expected got
         end)

(* ------------------------------------------------------------------ *)
(* End to end against the cycle-accurate platform                      *)
(* ------------------------------------------------------------------ *)

let modexp_analysis bits =
  let p = B.modexp ~bits () in
  let pf = Platform.create p in
  let platform = Platform.time pf in
  let t =
    conv (Gt.analyze ~bound:bits ~seed:7 ~pin:[ ("base", 123) ] ~platform p)
  in
  (t, platform)

(* a loop that needs more iterations than the unrolling keeps leaves no
   feasible path: the analysis converges on an empty basis, predicts
   nothing, and the WCET search answers None *)
let test_no_feasible_path () =
  let p = B.modexp ~bits:8 () in
  let platform = Platform.time (Platform.create p) in
  for bound = 3 to 7 do
    let name = Printf.sprintf "8 iterations unrolled %d times" bound in
    let t = conv (Gt.analyze ~bound ~seed:7 ~platform p) in
    Alcotest.(check int) (name ^ ": empty basis") 0 (List.length t.Gt.basis);
    Alcotest.(check int) (name ^ ": no prediction") 0
      (List.length (Gt.predictions t));
    Alcotest.(check bool) (name ^ ": no WCET") true
      (Gt.wcet_opt t ~platform = None)
  done

let test_wcet_modexp4 () =
  let t, platform = modexp_analysis 4 in
  let w = Gt.wcet t ~platform in
  (* ground truth: measure every exponent exhaustively *)
  let true_max =
    List.fold_left
      (fun acc e -> max acc (platform [ ("base", 123); ("exp", e) ]))
      0
      (List.init 16 (fun i -> i))
  in
  Alcotest.(check int) "WCET test case achieves the true maximum" true_max
    w.Gt.measured_cycles;
  (* the worst case sets all exponent bits *)
  Alcotest.(check int) "worst exponent is 15" 15
    (List.assoc "exp" w.Gt.test land 15)

let test_answer_ta () =
  let t, platform = modexp_analysis 4 in
  let w = Gt.wcet t ~platform in
  (match Gt.answer_ta t ~platform ~tau:w.Gt.measured_cycles with
  | `Yes -> ()
  | `No _ -> Alcotest.fail "tau = WCET must be YES");
  match Gt.answer_ta t ~platform ~tau:(w.Gt.measured_cycles - 1) with
  | `No test ->
    Alcotest.(check bool) "witness exceeds tau" true
      (platform test > w.Gt.measured_cycles - 1)
  | `Yes -> Alcotest.fail "tau < WCET must be NO"

let test_prediction_accuracy_modexp4 () =
  let t, platform = modexp_analysis 4 in
  let paths = Gt.feasible_paths t in
  Alcotest.(check int) "16 feasible paths" 16 (List.length paths);
  List.iter
    (fun (path, test) ->
      let measured = float_of_int (platform test) in
      match Gt.predict_path t path with
      | None -> Alcotest.fail "unpredictable feasible path"
      | Some predicted ->
        let err = abs_float (predicted -. measured) /. measured in
        if err > 0.05 then
          Alcotest.failf "prediction off by %.1f%% (%.0f vs %.0f)" (100. *. err)
            predicted measured)
    paths

let test_more_trials_reduce_noise_error () =
  (* with a randomized starting environment, measurements are noisy; the
     probabilistic-soundness story of Section 3.3 needs more trials to
     tighten the model. Compare mean error at 1 vs 40 trials/path against
     a long-run average ground truth. *)
  let p = B.modexp ~bits:4 () in
  (* tiny caches with a heavy miss penalty make the adversarial starting
     state matter *)
  let cachecfg = { Microarch.Cache.lines = 4; line_bytes = 8; miss_penalty = 40 } in
  let pf =
    Platform.create ~icache:cachecfg ~dcache:cachecfg ~noise_seed:9 p
  in
  let platform = Platform.time pf in
  let truth test =
    let n = 400 in
    let s = ref 0 in
    for _ = 1 to n do
      s := !s + platform test
    done;
    float_of_int !s /. float_of_int n
  in
  let mean_err t =
    let paths = Gt.feasible_paths t in
    let errs =
      List.filter_map
        (fun (path, test) ->
          Option.map
            (fun pred -> abs_float (pred -. truth test))
            (Gt.predict_path t path))
        paths
    in
    List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs)
  in
  (* average the model error across several learner seeds *)
  let avg_err trials =
    let seeds = [ 1; 2; 3; 4; 5 ] in
    let total =
      List.fold_left
        (fun acc seed ->
          acc
          +. mean_err
               (conv
                  (Gt.analyze ~bound:4 ~trials ~seed ~pin:[ ("base", 123) ]
                     ~platform p)))
        0.0 seeds
    in
    total /. float_of_int (List.length seeds)
  in
  let e_few = avg_err 5 and e_many = avg_err 300 in
  Alcotest.(check bool)
    (Printf.sprintf "more trials help (%.1f -> %.1f cycles)" e_few e_many)
    true (e_many < e_few)

let test_hypothesis_quality () =
  (* exactly linear platform: mu_hat must vanish and the margin hold *)
  let u, g = bitcount_setup 4 in
  let m = Cfg.num_edges g in
  let weights = Array.init m (fun i -> 1 + ((i * 7) mod 13)) in
  let platform = linear_platform u g weights in
  let t = conv (Gt.analyze ~bound:4 ~seed:3 ~platform (B.bitcount ())) in
  let q = Gt.hypothesis_quality t ~platform in
  Alcotest.(check (float 1e-6)) "mu_hat = 0 when H holds exactly" 0.0 q.Gt.mu_hat;
  Alcotest.(check bool) "margin ok" true q.Gt.margin_ok;
  Alcotest.(check int) "all paths checked" 16 q.Gt.paths_checked;
  (* real platform: mu_hat is nonzero but small relative to the times *)
  let t, platform = modexp_analysis 4 in
  let q = Gt.hypothesis_quality t ~platform in
  Alcotest.(check bool) "perturbation detected" true (q.Gt.mu_hat > 0.0);
  Alcotest.(check bool) "perturbation small" true (q.Gt.mu_hat < 50.0)

let test_distributions_close () =
  let t, platform = modexp_analysis 4 in
  let pred = Gt.predicted_distribution t in
  let meas = Gt.measured_distribution t ~platform in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 in
  Alcotest.(check int) "same mass" (total meas) (total pred);
  let mean d =
    let s = List.fold_left (fun a (v, n) -> a +. float_of_int (v * n)) 0.0 d in
    s /. float_of_int (total d)
  in
  let dm = abs_float (mean pred -. mean meas) /. mean meas in
  if dm > 0.02 then Alcotest.failf "distribution means differ by %.2f%%" (100. *. dm)

(* [Learner.predict] for every enumerated path, as exact float bits
   (["%h"], "none" outside the span), digested; the digests were recorded
   when every prediction still ran its own elimination of [basis | path],
   so they pin the factored solve to the same exact rationals. Dead paths
   are predicted too, so the walk is the structural reference's *)
let prediction_digest t =
  structural_paths t.Gt.cfg
  |> Seq.map (fun path ->
         match Gt.predict_path t path with
         | None -> "none"
         | Some cy -> Printf.sprintf "%h" cy)
  |> List.of_seq
  |> fun l -> (List.length l, Digest.to_hex (Digest.string (String.concat ";" l)))

let test_predictions_pinned () =
  let pinned =
    [
      (4, (31, "507451d7c0bac209842cec1ae7c90f59"));
      (5, (63, "93ccf77cd1b3b4853bea3374bd0b1b9a"));
      (6, (127, "866ade2db3f034d64e7dda584bb960c1"));
      (7, (255, "7f7ff35fb442f60ba3190ae94c868f14"));
    ]
  in
  List.iter
    (fun (bits, expected) ->
      let t, _ = modexp_analysis bits in
      Alcotest.(check (pair int string))
        (Printf.sprintf "modexp %d bits" bits)
        expected (prediction_digest t))
    pinned;
  (* the Fig. 6 kernel: 8-bit modexp on a barycentric-spanner basis *)
  let p = B.modexp () in
  let platform = Platform.time (Platform.create p) in
  let t =
    conv (Gt.analyze ~bound:8 ~seed:2012 ~pin:[ ("base", 123) ] ~platform p)
  in
  let t = Gt.refine_with_spanner ~seed:2012 ~platform t in
  Alcotest.(check (pair int string)) "Fig. 6 modexp, spanner basis"
    (511, "32e149a1549e8aca0f64998eab1510cb")
    (prediction_digest t)

(* the eager WCET: the first feasible path (enumeration order) of
   greatest prediction *)
let eager_first_maximum t =
  match Gt.predictions t with
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun ((_, _, best) as acc) ((_, _, cy) as cand) ->
           if cy > best then cand else acc)
         first rest)

let check_lazy_is_eager name t ~platform =
  match (eager_first_maximum t, Gt.wcet_opt t ~platform) with
  | None, None -> ()
  | Some (path, _, cy), Some w ->
    Alcotest.(check (float 0.0)) (name ^ ": predicted cycles") cy
      w.Gt.predicted_cycles;
    (* the test case comes from a solver with a different query history,
       so it need only drive the same path *)
    Alcotest.(check bool) (name ^ ": test drives the eager path") true
      (Testgen.check_drives t.Gt.unrolled t.Gt.cfg path w.Gt.test);
    Alcotest.(check int) (name ^ ": measured at the test") (platform w.Gt.test)
      w.Gt.measured_cycles
  | _ -> Alcotest.failf "%s: eager and lazy disagree on existence" name

let test_lazy_wcet_is_eager () =
  for bits = 3 to 9 do
    let t, platform = modexp_analysis bits in
    check_lazy_is_eager (Printf.sprintf "modexp %d bits" bits) t ~platform
  done;
  (* platforms blind to x's top counted bit: the two paths that differ
     only there tie, at the maximum too, so the pick rests on the tie
     rule; a constant platform ties every path *)
  let popcount3 inputs =
    let x = List.assoc "x" inputs land 7 in
    (x land 1) + ((x lsr 1) land 1) + ((x lsr 2) land 1)
  in
  List.iter
    (fun (name, platform) ->
      let t = conv (Gt.analyze ~bound:4 ~seed:3 ~platform (B.bitcount ())) in
      let preds = List.map (fun (_, _, cy) -> cy) (Gt.predictions t) in
      let top = List.fold_left max neg_infinity preds in
      Alcotest.(check bool) (name ^ ": the maximum is tied") true
        (List.length (List.filter (( = ) top) preds) > 1);
      check_lazy_is_eager name t ~platform)
    [ ("bitcount, low 3 bits", popcount3); ("bitcount, constant", Fun.const 0) ]

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "gametime"
    [
      ( "rational",
        Alcotest.test_case "basics" `Quick test_rational_basics
        :: qsuite [ prop_rational_field ] );
      ( "linalg",
        [
          Alcotest.test_case "span and rank" `Quick test_span_rank;
          Alcotest.test_case "solve" `Quick test_solve_exact;
        ]
        @ qsuite [ prop_solve_recovers_combination; prop_solve_agrees_with_span ] );
      ( "basis",
        [
          Alcotest.test_case "bitcount basis" `Quick test_basis_bitcount;
          Alcotest.test_case "basis spans feasible paths" `Quick
            test_basis_spans_feasible_paths;
          Alcotest.test_case "modexp has 9 basis paths (paper)" `Slow
            test_modexp_nine_basis_paths;
          Alcotest.test_case "modexp basis paths pinned, 3-12 bits" `Quick
            test_modexp_basis_pinned;
          Alcotest.test_case "modexp stops at the live rank bound" `Quick
            test_modexp_stops_at_live_bound;
        ]
        @ qsuite [ prop_live_paths_match_reference ] );
      ( "learner",
        [
          Alcotest.test_case "exact on a linear platform" `Quick
            test_learner_exact_on_linear_platform;
        ] );
      ( "spanner",
        [
          Alcotest.test_case "basis coordinates are units" `Quick
            test_spanner_coordinates;
          Alcotest.test_case "produces a 2-spanner" `Quick
            test_spanner_two_spanner;
          Alcotest.test_case "no worse than greedy" `Quick
            test_spanner_no_worse_than_greedy;
          Alcotest.test_case "prediction still exact after refinement" `Quick
            test_spanner_prediction_still_exact;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "WCET on modexp4" `Quick test_wcet_modexp4;
          Alcotest.test_case "no feasible path" `Quick test_no_feasible_path;
          Alcotest.test_case "problem TA" `Quick test_answer_ta;
          Alcotest.test_case "per-path prediction accuracy" `Quick
            test_prediction_accuracy_modexp4;
          Alcotest.test_case "distribution shape" `Quick test_distributions_close;
          Alcotest.test_case "trials vs environment noise" `Quick
            test_more_trials_reduce_noise_error;
          Alcotest.test_case "hypothesis quality estimators" `Quick
            test_hypothesis_quality;
          Alcotest.test_case "predictions pinned" `Quick test_predictions_pinned;
          Alcotest.test_case "lazy WCET is the eager first maximum" `Quick
            test_lazy_wcet_is_eager;
        ] );
    ]
