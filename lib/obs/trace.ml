(* The trace record schema and its codec. See trace.mli. *)

module Schema = struct
  type value =
    | Int of int
    | Float of float
    | Bool of bool
    | String of string

  type attrs = (string * value) list

  type event =
    | Loop_started of { loop : string; attrs : attrs }
    | Iteration of { loop : string; index : int; attrs : attrs }
    | Candidate of { loop : string; attrs : attrs }
    | Oracle_verdict of { loop : string; verdict : string; attrs : attrs }
    | Counterexample of { loop : string; attrs : attrs }
    | Solver_call of { loop : string; result : string; attrs : attrs }
    | Certificate of { loop : string; attrs : attrs }
    | Progress of { loop : string; iteration : int; attrs : attrs }
    | Stall_detected of {
        loop : string;
        iteration : int;
        seconds_stalled : float;
        attrs : attrs;
      }
    | Budget_exhausted of { loop : string; reason : string; attrs : attrs }
    | Loop_finished of { loop : string; attrs : attrs }
    | Job_requeued of {
        loop : string;
        id : string;
        requeue : int;
        restart_budget : int;
        attrs : attrs;
      }
    | Degraded_entered of { loop : string; reason : string; attrs : attrs }
    | Degraded_exited of { loop : string; attrs : attrs }
end

include Schema

type record =
  | Span of {
      t : float;
      name : string;
      dur : float;
      depth : int;
      dom : int;
      attrs : attrs;
    }
  | Event of { t : float; dom : int; event : event }
  | Metrics of { t : float; metrics : (string * Json.t) list }

(* ----- encoding ----- *)

let fields = function
  | Loop_started { loop; attrs } -> ("loop_started", loop, attrs)
  | Iteration { loop; index; attrs } ->
    ("iteration", loop, ("index", Int index) :: attrs)
  | Candidate { loop; attrs } -> ("candidate", loop, attrs)
  | Oracle_verdict { loop; verdict; attrs } ->
    ("oracle_verdict", loop, ("verdict", String verdict) :: attrs)
  | Counterexample { loop; attrs } -> ("counterexample", loop, attrs)
  | Solver_call { loop; result; attrs } ->
    ("solver_call", loop, ("result", String result) :: attrs)
  | Certificate { loop; attrs } -> ("certificate", loop, attrs)
  | Progress { loop; iteration; attrs } ->
    ("progress", loop, ("iteration", Int iteration) :: attrs)
  | Stall_detected { loop; iteration; seconds_stalled; attrs } ->
    ( "stall_detected",
      loop,
      ("iteration", Int iteration)
      :: ("seconds_stalled", Float seconds_stalled)
      :: attrs )
  | Budget_exhausted { loop; reason; attrs } ->
    ("budget_exhausted", loop, ("reason", String reason) :: attrs)
  | Loop_finished { loop; attrs } -> ("loop_finished", loop, attrs)
  | Job_requeued { loop; id; requeue; restart_budget; attrs } ->
    ( "job_requeued",
      loop,
      ("id", String id)
      :: ("requeue", Int requeue)
      :: ("restart_budget", Int restart_budget)
      :: attrs )
  | Degraded_entered { loop; reason; attrs } ->
    ("degraded_entered", loop, ("reason", String reason) :: attrs)
  | Degraded_exited { loop; attrs } -> ("degraded_exited", loop, attrs)

let name ev =
  let n, _, _ = fields ev in
  n

let loop ev =
  let _, l, _ = fields ev in
  l

let json_of_value = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b
  | String s -> Json.String s

let json_of_attrs attrs =
  Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) attrs)

let to_json = function
  | Span { t; name; dur; depth; dom; attrs } ->
    Json.Obj
      [
        ("t", Json.Float t);
        ("kind", Json.String "span");
        ("name", Json.String name);
        ("dur", Json.Float dur);
        ("depth", Json.Int depth);
        ("dom", Json.Int dom);
        ("attrs", json_of_attrs attrs);
      ]
  | Event { t; dom; event } ->
    let name, loop, attrs = fields event in
    Json.Obj
      [
        ("t", Json.Float t);
        ("kind", Json.String "event");
        ("name", Json.String name);
        ("loop", Json.String loop);
        ("dom", Json.Int dom);
        ("attrs", json_of_attrs attrs);
      ]
  | Metrics { t; metrics } ->
    Json.Obj
      [
        ("t", Json.Float t);
        ("kind", Json.String "metrics");
        ("metrics", Json.Obj metrics);
      ]

(* ----- decoding ----- *)

let ( let* ) = Result.bind

let value_of_json k = function
  | Json.Int i -> Ok (Int i)
  | Json.Float f -> Ok (Float f)
  | Json.Bool b -> Ok (Bool b)
  | Json.String s -> Ok (String s)
  | Json.Null -> Ok (Float Float.nan)
  | Json.List _ | Json.Obj _ ->
    Error (Printf.sprintf "attribute %S is not a scalar" k)

let int_of_value = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let float_of_value = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let string_of_value = function String s -> Some s | _ -> None

(* the typed field [k]: the first attribute of that name, removed from
   the rest, which keep their order *)
let take what k conv attrs =
  let rec go seen = function
    | (k', v) :: rest when k' = k -> (
      match conv v with
      | Some x -> Ok (x, List.rev_append seen rest)
      | None -> Error (Printf.sprintf "%s with an ill-typed %s" what k))
    | kv :: rest -> go (kv :: seen) rest
    | [] -> Error (Printf.sprintf "%s without %s" what k)
  in
  go [] attrs

let event_of ~name ~loop attrs =
  let int k = take name k int_of_value in
  let float k = take name k float_of_value in
  let str k = take name k string_of_value in
  match name with
  | "loop_started" -> Ok (Loop_started { loop; attrs })
  | "iteration" ->
    let* index, attrs = int "index" attrs in
    Ok (Iteration { loop; index; attrs })
  | "candidate" -> Ok (Candidate { loop; attrs })
  | "oracle_verdict" ->
    let* verdict, attrs = str "verdict" attrs in
    Ok (Oracle_verdict { loop; verdict; attrs })
  | "counterexample" -> Ok (Counterexample { loop; attrs })
  | "solver_call" ->
    let* result, attrs = str "result" attrs in
    Ok (Solver_call { loop; result; attrs })
  | "certificate" -> Ok (Certificate { loop; attrs })
  | "progress" ->
    let* iteration, attrs = int "iteration" attrs in
    Ok (Progress { loop; iteration; attrs })
  | "stall_detected" ->
    let* iteration, attrs = int "iteration" attrs in
    let* seconds_stalled, attrs = float "seconds_stalled" attrs in
    Ok (Stall_detected { loop; iteration; seconds_stalled; attrs })
  | "budget_exhausted" ->
    let* reason, attrs = str "reason" attrs in
    Ok (Budget_exhausted { loop; reason; attrs })
  | "loop_finished" -> Ok (Loop_finished { loop; attrs })
  | "job_requeued" ->
    let* id, attrs = str "id" attrs in
    let* requeue, attrs = int "requeue" attrs in
    let* restart_budget, attrs = int "restart_budget" attrs in
    Ok (Job_requeued { loop; id; requeue; restart_budget; attrs })
  | "degraded_entered" ->
    let* reason, attrs = str "reason" attrs in
    Ok (Degraded_entered { loop; reason; attrs })
  | "degraded_exited" -> Ok (Degraded_exited { loop; attrs })
  | _ -> Error (Printf.sprintf "unknown event %S" name)

let of_json j =
  let field what k conv =
    match Option.bind (Json.member k j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s without a valid %s" what k)
  in
  (* traces written before the dom field are all single-domain *)
  let dom what =
    match Json.member "dom" j with
    | None -> Ok 0
    | Some _ -> field what "dom" Json.to_int
  in
  let attrs what =
    match Json.member "attrs" j with
    | None -> Ok []
    | Some (Json.Obj kvs) ->
      List.fold_right
        (fun (k, v) acc ->
          let* acc = acc in
          let* v = value_of_json k v in
          Ok ((k, v) :: acc))
        kvs (Ok [])
    | Some _ -> Error (what ^ " whose attrs is not an object")
  in
  match Option.bind (Json.member "kind" j) Json.to_str with
  | None -> Error "record without a kind"
  | Some "span" ->
    let* t = field "span" "t" Json.to_float in
    let* name = field "span" "name" Json.to_str in
    let* dur = field "span" "dur" Json.to_float in
    let* depth = field "span" "depth" Json.to_int in
    let* dom = dom "span" in
    let* attrs = attrs "span" in
    Ok (Span { t; name; dur; depth; dom; attrs })
  | Some "event" ->
    let* t = field "event" "t" Json.to_float in
    let* name = field "event" "name" Json.to_str in
    let* loop = field name "loop" Json.to_str in
    let* dom = dom name in
    let* attrs = attrs name in
    let* event = event_of ~name ~loop attrs in
    Ok (Event { t; dom; event })
  | Some "metrics" ->
    let* t = field "metrics record" "t" Json.to_float in
    let* metrics =
      field "metrics record" "metrics" (function
        | Json.Obj m -> Some m
        | _ -> None)
    in
    Ok (Metrics { t; metrics })
  | Some kind -> Error (Printf.sprintf "unknown record kind %S" kind)

let read path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let rec go lineno acc =
      match input_line ic with
      | exception End_of_file -> Ok (List.rev acc)
      | line when String.trim line = "" -> go (lineno + 1) acc
      | line -> (
        match Result.bind (Json.parse line) of_json with
        | Ok r -> go (lineno + 1) ((lineno, r) :: acc)
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
    in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go 1 [])
