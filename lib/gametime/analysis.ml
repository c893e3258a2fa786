module Lang = Prog.Lang
module Cfg = Prog.Cfg
module Paths = Prog.Paths
module Testgen = Prog.Testgen
module Unroll = Prog.Unroll

type t = {
  program : Lang.t;
  unrolled : Lang.t;
  cfg : Cfg.t;
  basis : Basis.basis_path list;
  model : Learner.model;
  pin : (string * int) list;
}

let pin_formula (program : Lang.t) pin =
  let width = program.Lang.width in
  Smt.Bv.conj
    (List.map
       (fun (x, v) -> Smt.Bv.eq (Smt.Bv.var ~width x) (Smt.Bv.const ~width v))
       pin)

type partial = {
  analysis : t option;
  reason : Budget.reason;
}

let analyze ?(bound = 8) ?trials ?seed ?(pin = [])
    ?(budget = Budget.unlimited) ~platform program =
  Obs.with_span "gametime.analyze" ~attrs:[ ("bound", Obs.Int bound) ]
  @@ fun () ->
  let unrolled = Unroll.unroll ~bound program in
  let cfg = Cfg.of_program unrolled in
  let mk basis =
    let model =
      Obs.with_span "gametime.learn" (fun () ->
          Learner.learn ?trials ?seed ~platform basis)
    in
    { program; unrolled; cfg; basis; model; pin }
  in
  match
    Obs.with_span "gametime.basis" (fun () ->
        Basis.extract ~assuming:(pin_formula program pin) ~budget unrolled cfg)
  with
  | Budget.Converged basis -> Budget.Converged (mk basis)
  | Budget.Exhausted p ->
    (* a truncated basis still supports a (weaker) timing model; with no
       feasible path at all there is nothing to measure *)
    Budget.Exhausted
      {
        analysis =
          (match p.Basis.found with [] -> None | basis -> Some (mk basis));
        reason = p.Basis.reason;
      }

let predict_path t path = Learner.predict t.model (Paths.vector t.cfg path)

(* a driving test case for [path] from the feasibility oracle [sess] *)
let test_of sess path =
  match Testgen.feasible_in sess path with
  | `Test test -> Some test
  (* Unknown (possible only under injected faults here — these queries
     are unbudgeted) conservatively drops the path *)
  | `Infeasible | `Unknown _ -> None

let oracle t =
  Testgen.new_session ~assuming:(pin_formula t.program t.pin) t.unrolled t.cfg

let feasible_paths t =
  Obs.with_span "gametime.feasible_paths" @@ fun () ->
  let sess = oracle t in
  Paths.enumerate t.cfg
  |> Seq.filter_map (fun path ->
         Option.map (fun test -> (path, test)) (test_of sess path))
  |> List.of_seq

let predictions t =
  List.filter_map
    (fun (path, test) ->
      Option.map (fun cy -> (path, test, cy)) (predict_path t path))
    (feasible_paths t)

let refine_with_spanner ?trials ?seed ?c ~platform t =
  let basis = Spanner.barycentric ?c t.basis ~candidates:(feasible_paths t) t.cfg in
  let model = Learner.learn ?trials ?seed ~platform basis in
  { t with basis; model }

type wcet = {
  predicted_cycles : float;
  test : (string * int) list;
  measured_cycles : int;
}

(* The eager answer is the first feasible path (in enumeration order)
   of greatest prediction. Predictions need no feasibility, so rank every
   live path by prediction, descending, with a stable sort (ties keep
   enumeration order) and ask the oracle only until the first feasible
   one: the same path, usually after one query instead of one per path. *)
let wcet_opt t ~platform =
  Obs.with_span "gametime.wcet" @@ fun () ->
  let ranked =
    Obs.with_span "gametime.predict" @@ fun () ->
    Paths.enumerate t.cfg
    |> Seq.filter_map (fun path ->
           Option.map (fun cy -> (path, cy)) (predict_path t path))
    |> List.of_seq
    |> List.stable_sort (fun (_, a) (_, b) -> Float.compare b a)
  in
  let top =
    Obs.with_span "gametime.feasible_paths" @@ fun () ->
    let sess = oracle t in
    List.find_map
      (fun (path, cy) -> Option.map (fun test -> (cy, test)) (test_of sess path))
      ranked
  in
  Option.map
    (fun (predicted_cycles, test) ->
      { predicted_cycles; test; measured_cycles = platform test })
    top

let wcet t ~platform =
  match wcet_opt t ~platform with
  | None -> invalid_arg "Gametime.wcet: no feasible paths"
  | Some w -> w

let answer_ta t ~platform ~tau =
  let w = wcet t ~platform in
  if w.measured_cycles <= tau then `Yes else `No w.test

type hypothesis_quality = {
  mu_hat : float;
  rho_hat : float;
  margin_ok : bool;
  paths_checked : int;
}

let hypothesis_quality t ~platform =
  let rows =
    List.filter_map
      (fun (path, test) ->
        Option.map
          (fun pred -> (pred, float_of_int (platform test)))
          (predict_path t path))
      (feasible_paths t)
  in
  let mu_hat =
    List.fold_left (fun m (p, meas) -> max m (abs_float (p -. meas))) 0.0 rows
  in
  let rho_hat =
    match List.sort (fun (a, _) (b, _) -> compare b a) rows with
    | (top, _) :: (second, _) :: _ -> top -. second
    | _ -> infinity
  in
  {
    mu_hat;
    rho_hat;
    margin_ok = rho_hat > mu_hat;
    paths_checked = List.length rows;
  }

type distribution = (int * int) list

let histogram values =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun v ->
      Hashtbl.replace tbl v (1 + Option.value (Hashtbl.find_opt tbl v) ~default:0))
    values;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let predicted_distribution t =
  histogram
    (List.map
       (fun (_, _, cy) -> int_of_float (Float.round cy))
       (predictions t))

let measured_distribution t ~platform =
  histogram (List.map (fun (_, test) -> platform test) (feasible_paths t))
