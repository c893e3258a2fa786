module Paths = Prog.Paths
module Cfg = Prog.Cfg
module Testgen = Prog.Testgen
module Loop = Sciduction.Loop

type basis_path = {
  path : Paths.path;
  vector : int array;
  test : (string * int) list;
}

type partial = {
  found : basis_path list;
  examined : int;
  reason : Budget.reason;
}

let count_true = Array.fold_left (fun n b -> if b then n + 1 else n) 0
let live_edges (g : Cfg.t) = count_true g.Cfg.live

(* every path vector over live edges is a unit flow from entry to exit
   in the live subgraph, whose flow space has dimension
   edges - nodes + 2; a subgraph without edges carries no nonzero
   vector *)
let rank_bound (g : Cfg.t) =
  let nodes = Array.make g.Cfg.nnodes false in
  Array.iter
    (fun (e : Cfg.edge) ->
      if g.Cfg.live.(e.Cfg.id) then begin
        nodes.(e.Cfg.src) <- true;
        nodes.(e.Cfg.dst) <- true
      end)
    g.Cfg.edges;
  let n = count_true nodes in
  if n = 0 then 0 else live_edges g - n + 2

let extract ?(max_paths = 100_000) ?assuming ?(budget = Budget.unlimited) p
    (g : Cfg.t) =
  let dim = Cfg.num_edges g in
  let span = Linalg.empty_span ~dim in
  let bound = rank_bound g in
  let acc = ref [] in
  let examined = ref 0 in
  let totals () =
    [
      ("examined", Obs.Int !examined);
      ("basis", Obs.Int (List.length !acc));
      ("rank", Obs.Int (Linalg.rank span));
    ]
  in
  (* why a converged run stopped: the span filled the live flow space,
     the live paths ran out, or the enumeration cap was hit *)
  let outcome () =
    if Linalg.rank span >= bound then "rank_bound"
    else if !examined >= max_paths then "max_paths"
    else "enumerated"
  in
  Loop.run "gametime" ~budget
    ~attrs:
      [
        ("edges", Obs.Int dim);
        ("live_edges", Obs.Int (live_edges g));
        ("rank_bound", Obs.Int bound);
      ]
    ~finished:(fun _ -> ("outcome", Obs.String (outcome ())) :: totals ())
    ~exhausted:(fun p ->
      (p.reason, [ ("examined", Obs.Int p.examined) ], totals ()))
  @@ fun lp ->
  let sess = Testgen.new_session ?assuming p g in
  (* a cut-short run loses basis paths, never gains wrong ones: every
     kept path is still feasibility-certified and independent *)
  let stopped = ref None in
  let take path =
    let vector = Paths.vector g path in
    if not (Linalg.in_span span vector) then begin
      (* independent direction: a candidate basis path, pending the
         feasibility oracle's verdict *)
      Loop.candidate lp ~attrs:[ ("rank", Obs.Int (Linalg.rank span)) ];
      match
        Loop.solve lp
          ~conflicts:(fun () -> Testgen.session_conflicts sess)
          (fun limits -> Testgen.feasible_in ~limits sess path)
      with
      | `Infeasible ->
        Loop.verdict lp "infeasible";
        Loop.counterexample lp
      | `Unknown r ->
        Loop.verdict lp "unknown";
        stopped := Some (Loop.reason_of_sat r)
      | `Test test ->
        Loop.verdict lp "feasible";
        ignore (Linalg.add_if_independent span vector);
        acc := { path; vector; test } :: !acc
    end
  in
  let rec consume seq =
    if Linalg.rank span < bound && !examined < max_paths && !stopped = None
    then begin
      match Loop.tick lp with
      | Some reason -> stopped := Some reason
      | None -> (
        match seq () with
        | Seq.Nil -> ()
        | Seq.Cons (path, rest) ->
          Loop.iteration lp !examined;
          incr examined;
          take path;
          consume rest)
    end
  in
  consume (Paths.enumerate g);
  match !stopped with
  | None -> Budget.Converged (List.rev !acc)
  | Some reason ->
    Budget.Exhausted { found = List.rev !acc; examined = !examined; reason }
