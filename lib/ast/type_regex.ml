(* Thompson construction of a small NFA from a relationship-type
   regular expression, with on-the-fly ε-closure.  State sets are
   plain int sets; both engines step the same automaton inside the
   shared walker (Eval.regex_hop), so they agree on the recognised
   language by construction. *)

module Int_set = Set.Make (Int)

type states = Int_set.t

type nfa = {
  eps : int list array; (* ε-successors per state *)
  trans : (string * int) list array; (* labelled successors per state *)
  start_state : int;
  accept_state : int;
}

(* Thompson construction: every fragment has one entry and one exit
   state, composed with ε-edges. *)
let compile (re : Ast.type_regex) : nfa =
  let eps = ref [] and trans = ref [] and n = ref 0 in
  let fresh () =
    let s = !n in
    incr n;
    eps := (s, []) :: !eps;
    trans := (s, []) :: !trans;
    s
  in
  let add_eps a b = eps := (a, b :: List.assoc a !eps) :: List.remove_assoc a !eps in
  let add_trans a lbl b =
    trans := (a, (lbl, b) :: List.assoc a !trans) :: List.remove_assoc a !trans
  in
  let rec frag re =
    match re with
    | Ast.TR_type t ->
      let i = fresh () and o = fresh () in
      add_trans i t o;
      (i, o)
    | Ast.TR_seq rs ->
      (match rs with
      | [] ->
        let i = fresh () and o = fresh () in
        add_eps i o;
        (i, o)
      | first :: rest ->
        List.fold_left
          (fun (i, o) r ->
            let i', o' = frag r in
            add_eps o i';
            (i, o'))
          (frag first) rest)
    | Ast.TR_alt rs ->
      let i = fresh () and o = fresh () in
      List.iter
        (fun r ->
          let i', o' = frag r in
          add_eps i i';
          add_eps o' o)
        rs;
      (i, o)
    | Ast.TR_star r ->
      let i = fresh () and o = fresh () in
      let i', o' = frag r in
      add_eps i i';
      add_eps i o;
      add_eps o' i';
      add_eps o' o;
      (i, o)
    | Ast.TR_plus r -> frag (Ast.TR_seq [ r; Ast.TR_star r ])
    | Ast.TR_opt r ->
      let i, o = frag r in
      add_eps i o;
      (i, o)
  in
  let start_state, accept_state = frag re in
  let size = !n in
  let eps_arr = Array.make size [] and trans_arr = Array.make size [] in
  List.iter (fun (s, succs) -> eps_arr.(s) <- succs) !eps;
  List.iter (fun (s, succs) -> trans_arr.(s) <- succs) !trans;
  {
    eps = eps_arr;
    trans = trans_arr;
    start_state;
    accept_state;
  }

let closure nfa (set : states) : states =
  let rec go acc = function
    | [] -> acc
    | s :: rest ->
      if Int_set.mem s acc then go acc rest
      else go (Int_set.add s acc) (nfa.eps.(s) @ rest)
  in
  go Int_set.empty (Int_set.elements set)

let start nfa : states = closure nfa (Int_set.singleton nfa.start_state)

let accepting nfa (set : states) = Int_set.mem nfa.accept_state set

let is_empty = Int_set.is_empty

(* One transition of the subset simulation on relationship type [lbl]. *)
let step nfa (set : states) (lbl : string) : states =
  let direct =
    Int_set.fold
      (fun s acc ->
        List.fold_left
          (fun acc (l, s') -> if String.equal l lbl then Int_set.add s' acc else acc)
          acc nfa.trans.(s))
      set Int_set.empty
  in
  if Int_set.is_empty direct then direct else closure nfa direct
