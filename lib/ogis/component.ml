module Bv = Smt.Bv

type t = {
  name : string;
  arity : int;
  commutative : bool;
  semantics : Bv.term list -> Bv.term;
  print : string list -> string;
}

let apply c args =
  if List.length args <> c.arity then
    invalid_arg
      (Printf.sprintf "Component.apply: %s expects %d arguments" c.name c.arity);
  c.semantics args

let binop ~commutative name op sym =
  {
    name;
    arity = 2;
    commutative;
    semantics =
      (function [ a; b ] -> op a b | _ -> invalid_arg name);
    print =
      (function [ a; b ] -> Printf.sprintf "%s %s %s" a sym b | _ -> assert false);
  }

let unop name op render =
  {
    name;
    arity = 1;
    commutative = false;
    semantics = (function [ a ] -> op a | _ -> invalid_arg name);
    print = (function [ a ] -> render a | _ -> assert false);
  }

let add = binop ~commutative:true "add" Bv.badd "+"
let sub = binop ~commutative:false "sub" Bv.bsub "-"
let and_ = binop ~commutative:true "and" Bv.band "&"
let or_ = binop ~commutative:true "or" Bv.bor "|"
let xor = binop ~commutative:true "xor" Bv.bxor "^"
let mul = binop ~commutative:true "mul" Bv.bmul "*"
let not_ = unop "not" Bv.bnot (Printf.sprintf "~%s")
let neg = unop "neg" Bv.bneg (Printf.sprintf "-%s")

let inc =
  unop "inc"
    (fun a -> Bv.badd a (Bv.const ~width:(Bv.width a) 1))
    (Printf.sprintf "%s + 1")

let dec =
  unop "dec"
    (fun a -> Bv.bsub a (Bv.const ~width:(Bv.width a) 1))
    (Printf.sprintf "%s - 1")

let shl_const k =
  unop
    (Printf.sprintf "shl%d" k)
    (fun a -> Bv.bshl a (Bv.const ~width:(Bv.width a) k))
    (fun a -> Printf.sprintf "%s << %d" a k)

let lshr_const k =
  unop
    (Printf.sprintf "lshr%d" k)
    (fun a -> Bv.blshr a (Bv.const ~width:(Bv.width a) k))
    (fun a -> Printf.sprintf "%s >> %d" a k)

let const ~width value =
  {
    name = Printf.sprintf "const%d" value;
    arity = 0;
    commutative = false;
    semantics = (fun _ -> Bv.const ~width value);
    print = (fun _ -> string_of_int value);
  }

let ule01 =
  {
    name = "ule01";
    arity = 2;
    commutative = false;
    semantics =
      (function
      | [ a; b ] ->
        let w = Bv.width a in
        Bv.ite (Bv.ule a b) (Bv.const ~width:w 1) (Bv.const ~width:w 0)
      | _ -> invalid_arg "ule01");
    print =
      (function
      | [ a; b ] -> Printf.sprintf "%s <= %s ? 1 : 0" a b
      | _ -> assert false);
  }

let fig8_p1 = [ xor; xor; xor ]
let fig8_p2 = [ shl_const 2; shl_const 3; add; add ]
let hackers_delight_basic = [ and_; or_; xor; not_; neg; add; sub; inc; dec ]
