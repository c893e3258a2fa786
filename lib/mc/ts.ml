type expr =
  | T
  | F
  | V of int
  | In of int
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr

type t = {
  name : string;
  num_latches : int;
  num_inputs : int;
  init : bool array;
  next : expr array;
  bad : expr;
}

let rec check_expr ~num_latches ~num_inputs = function
  | T | F -> ()
  | V i ->
    if i < 0 || i >= num_latches then invalid_arg "Ts: latch out of range"
  | In i ->
    if i < 0 || i >= num_inputs then invalid_arg "Ts: input out of range"
  | Not a -> check_expr ~num_latches ~num_inputs a
  | And (a, b) | Or (a, b) | Xor (a, b) ->
    check_expr ~num_latches ~num_inputs a;
    check_expr ~num_latches ~num_inputs b

let make ~name ~num_latches ~num_inputs ~init ~next ~bad =
  if Array.length init <> num_latches then invalid_arg "Ts.make: init arity";
  if Array.length next <> num_latches then invalid_arg "Ts.make: next arity";
  Array.iter (check_expr ~num_latches ~num_inputs) next;
  (* the bad predicate is a pure state predicate *)
  check_expr ~num_latches ~num_inputs:0 bad;
  { name; num_latches; num_inputs; init; next; bad }

let rec eval e ~state ~input =
  match e with
  | T -> true
  | F -> false
  | V i -> state.(i)
  | In i -> input.(i)
  | Not a -> not (eval a ~state ~input)
  | And (a, b) -> eval a ~state ~input && eval b ~state ~input
  | Or (a, b) -> eval a ~state ~input || eval b ~state ~input
  | Xor (a, b) -> eval a ~state ~input <> eval b ~state ~input

let step t ~state ~input = Array.map (fun e -> eval e ~state ~input) t.next

let is_bad t state = eval t.bad ~state ~input:[||]

let support t es =
  let latches = Array.make t.num_latches false in
  let inputs = Array.make t.num_inputs false in
  let rec mark = function
    | T | F -> ()
    | V i -> latches.(i) <- true
    | In i -> inputs.(i) <- true
    | Not a -> mark a
    | And (a, b) | Or (a, b) | Xor (a, b) ->
      mark a;
      mark b
  in
  List.iter mark es;
  let marked a = List.filter (fun i -> a.(i)) (List.init (Array.length a) Fun.id) in
  (marked latches, marked inputs)

let rec pp_expr fmt = function
  | T -> Format.pp_print_string fmt "1"
  | F -> Format.pp_print_string fmt "0"
  | V i -> Format.fprintf fmt "v%d" i
  | In i -> Format.fprintf fmt "i%d" i
  | Not a -> Format.fprintf fmt "!%a" pp_expr a
  | And (a, b) -> Format.fprintf fmt "(%a & %a)" pp_expr a pp_expr b
  | Or (a, b) -> Format.fprintf fmt "(%a | %a)" pp_expr a pp_expr b
  | Xor (a, b) -> Format.fprintf fmt "(%a ^ %a)" pp_expr a pp_expr b
