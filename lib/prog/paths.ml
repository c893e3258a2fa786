type path = int list

(* outgoing live edges per node, in source order *)
let live_succ (g : Cfg.t) =
  Array.map
    (List.filter (fun (e : Cfg.edge) -> g.Cfg.live.(e.Cfg.id)))
    g.Cfg.succ

let enumerate (g : Cfg.t) =
  let succ = live_succ g in
  let rec from node acc () =
    if node = g.Cfg.exit_ then Seq.Cons (List.rev acc, Seq.empty)
    else
      let branches =
        List.map
          (fun (e : Cfg.edge) -> from e.Cfg.dst (e.Cfg.id :: acc))
          succ.(node)
      in
      List.fold_right Seq.append branches Seq.empty ()
  in
  from g.Cfg.entry []

let count (g : Cfg.t) =
  (* number of live paths from each node to exit, processed in reverse
     topological order via memoized recursion (the CFG is a DAG) *)
  let succ = live_succ g in
  let memo = Array.make g.Cfg.nnodes (-1) in
  let rec paths_from node =
    if node = g.Cfg.exit_ then 1
    else if memo.(node) >= 0 then memo.(node)
    else begin
      let n =
        List.fold_left
          (fun acc (e : Cfg.edge) -> acc + paths_from e.Cfg.dst)
          0 succ.(node)
      in
      memo.(node) <- n;
      n
    end
  in
  paths_from g.Cfg.entry

let vector (g : Cfg.t) path =
  let v = Array.make (Cfg.num_edges g) 0 in
  List.iter (fun id -> v.(id) <- v.(id) + 1) path;
  v

let of_vector (g : Cfg.t) v =
  let rec go node acc =
    if node = g.Cfg.exit_ then Some (List.rev acc)
    else
      let next =
        List.find_opt (fun (e : Cfg.edge) -> v.(e.Cfg.id) = 1) g.Cfg.succ.(node)
      in
      match next with
      | None -> None
      | Some e -> go e.Cfg.dst (e.Cfg.id :: acc)
  in
  go g.Cfg.entry []

let pp fmt path =
  Format.fprintf fmt "[%s]" (String.concat ";" (List.map string_of_int path))
