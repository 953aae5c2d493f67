module Tuple = Dw_relation.Tuple

(* Nodes hold up to [branching] keys; leaves hold key/value pairs and a
   next-leaf link.  Internal nodes hold n keys and n+1 children where
   children.(i) covers keys < keys.(i) and children.(n) covers the rest
   (right-biased separators: keys.(i) is the smallest key of the subtree
   children.(i+1)). *)

type 'a node =
  | Leaf of 'a leaf
  | Internal of 'a internal

and 'a leaf = {
  mutable keys : Tuple.t array;
  mutable values : 'a array;
  mutable next : 'a leaf option;
}

and 'a internal = {
  mutable ikeys : Tuple.t array;
  mutable children : 'a node array;
}

(* [latch] serialises insert, remove, find and iter_range: snapshot
   readers on other domains walk the tree without row locks while the
   writer replaces a node's key and value arrays in separate stores *)
type 'a t = {
  branching : int;
  mutable root : 'a node option;
  mutable cardinal : int;
  latch : Mutex.t;
}

let create ?(branching = 32) () =
  if branching < 4 || branching mod 2 <> 0 then
    invalid_arg "Btree.create: branching must be even and >= 4";
  { branching; root = None; cardinal = 0; latch = Mutex.create () }

let cardinal t = t.cardinal

(* index of first key >= k, by binary search *)
let lower_bound keys k =
  let n = Array.length keys in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Tuple.compare keys.(mid) k < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 n

(* child index to descend into for key k *)
let child_index ikeys k =
  let n = Array.length ikeys in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Tuple.compare k ikeys.(mid) < 0 then go lo mid else go (mid + 1) hi
  in
  go 0 n

let rec find_leaf node k =
  match node with
  | Leaf leaf -> leaf
  | Internal node -> find_leaf node.children.(child_index node.ikeys k) k

let find t k =
  Mutex.protect t.latch (fun () ->
      match t.root with
      | None -> None
      | Some root ->
        let leaf = find_leaf root k in
        let i = lower_bound leaf.keys k in
        if i < Array.length leaf.keys && Tuple.compare leaf.keys.(i) k = 0 then
          Some leaf.values.(i)
        else None)

let mem t k = find t k <> None

(* a node edit builds a fresh exact-size array (the node is then
   replaced whole, so a concurrent reader sees the old or the new one) *)
let array_insert arr i x =
  let n = Array.length arr in
  let r = Array.make (n + 1) x in
  Array.blit arr 0 r 0 i;
  Array.blit arr i r (i + 1) (n - i);
  r

let array_remove arr i =
  let n = Array.length arr in
  let r = Array.sub arr 0 (n - 1) in
  Array.blit arr (i + 1) r i (n - 1 - i);
  r

(* result of inserting below: either done, or the child split producing a
   new right sibling with separator key *)
type 'a split = No_split | Split of Tuple.t * 'a node

let rec insert_node t node k v =
  match node with
  | Leaf leaf ->
    let i = lower_bound leaf.keys k in
    if i < Array.length leaf.keys && Tuple.compare leaf.keys.(i) k = 0 then begin
      leaf.values.(i) <- v;
      No_split
    end
    else begin
      leaf.keys <- array_insert leaf.keys i k;
      leaf.values <- array_insert leaf.values i v;
      t.cardinal <- t.cardinal + 1;
      if Array.length leaf.keys <= t.branching then No_split
      else begin
        let mid = Array.length leaf.keys / 2 in
        let right =
          {
            keys = Array.sub leaf.keys mid (Array.length leaf.keys - mid);
            values = Array.sub leaf.values mid (Array.length leaf.values - mid);
            next = leaf.next;
          }
        in
        leaf.keys <- Array.sub leaf.keys 0 mid;
        leaf.values <- Array.sub leaf.values 0 mid;
        leaf.next <- Some right;
        Split (right.keys.(0), Leaf right)
      end
    end
  | Internal node ->
    let ci = child_index node.ikeys k in
    (match insert_node t node.children.(ci) k v with
     | No_split -> No_split
     | Split (sep, new_child) ->
       node.ikeys <- array_insert node.ikeys ci sep;
       node.children <- array_insert node.children (ci + 1) new_child;
       if Array.length node.ikeys <= t.branching then No_split
       else begin
         let mid = Array.length node.ikeys / 2 in
         let sep_up = node.ikeys.(mid) in
         let right =
           {
             ikeys = Array.sub node.ikeys (mid + 1) (Array.length node.ikeys - mid - 1);
             children =
               Array.sub node.children (mid + 1) (Array.length node.children - mid - 1);
           }
         in
         node.ikeys <- Array.sub node.ikeys 0 mid;
         node.children <- Array.sub node.children 0 (mid + 1);
         Split (sep_up, Internal right)
       end)

let insert t k v =
  Mutex.protect t.latch (fun () ->
      match t.root with
      | None ->
        t.root <- Some (Leaf { keys = [| k |]; values = [| v |]; next = None });
        t.cardinal <- 1
      | Some root -> (
          match insert_node t root k v with
          | No_split -> ()
          | Split (sep, right) ->
            t.root <- Some (Internal { ikeys = [| sep |]; children = [| root; right |] })))

(* [n] items in consecutive groups of [size]; a last group below
   [min_size] is merged with its predecessor when the union fits
   [max_size], else the union is split in half (both halves then hold
   the minimum): (first index, length) pairs *)
let groups n ~size ~min_size ~max_size =
  let full = List.init (n / size) (fun i -> (i * size, size)) in
  let all = if n mod size = 0 then full else full @ [ (n - (n mod size), n mod size) ] in
  match List.rev all with
  | (_, last) :: (start, prev) :: rest_rev when last < min_size ->
    let union = prev + last in
    if union <= max_size then List.rev ((start, union) :: rest_rev)
    else
      let half = union / 2 in
      List.rev ((start + half, union - half) :: (start, half) :: rest_rev)
  | _ -> all

(* bulk loading: pack strictly ascending keys into leaves of ~3/4
   branching (so later inserts don't split immediately), then build
   parent levels; a fresh tree, so a reader sees none of it until the
   root is swapped in *)
let pack branching keys values =
  let n = Array.length keys in
  if n = 0 then None
  else begin
    let fill = max (branching / 2) (branching * 3 / 4) in
    let leaves =
      List.map
        (fun (start, len) ->
          { keys = Array.sub keys start len; values = Array.sub values start len; next = None })
        (groups n ~size:fill ~min_size:(branching / 2) ~max_size:branching)
    in
    let rec chain = function
      | a :: (b :: _ as rest) ->
        a.next <- Some b;
        chain rest
      | [ _ ] | [] -> ()
    in
    chain leaves;
    let rec min_key = function
      | Leaf leaf -> leaf.keys.(0)
      | Internal node -> min_key node.children.(0)
    in
    (* separator = min key of the right child.  An internal node with c
       children has c-1 keys: minimum fill is branching/2 keys, i.e.
       branching/2 + 1 children; two groups fit one node up to
       branching + 1 children *)
    let rec build = function
      | [ single ] -> single
      | nodes ->
        let nodes = Array.of_list nodes in
        build
          (List.map
             (fun (start, len) ->
               let children = Array.sub nodes start len in
               Internal
                 { ikeys = Array.init (len - 1) (fun i -> min_key children.(i + 1)); children })
             (groups (Array.length nodes) ~size:(max 2 (branching * 3 / 4))
                ~min_size:((branching / 2) + 1) ~max_size:(branching + 1)))
    in
    Some (build (List.map (fun l -> Leaf l) leaves))
  end

let of_sorted ?(branching = 32) bindings =
  if branching < 4 || branching mod 2 <> 0 then
    invalid_arg "Btree.of_sorted: branching must be even and >= 4";
  let rec check_sorted = function
    | (k1, _) :: ((k2, _) :: _ as rest) ->
      if Tuple.compare k1 k2 >= 0 then
        invalid_arg "Btree.of_sorted: bindings not strictly ascending";
      check_sorted rest
    | [ _ ] | [] -> ()
  in
  check_sorted bindings;
  let keys = Array.of_list (List.map fst bindings) in
  let values = Array.of_list (List.map snd bindings) in
  {
    branching;
    root = pack branching keys values;
    cardinal = Array.length keys;
    latch = Mutex.create ();
  }

let min_keys t = t.branching / 2

let node_size = function
  | Leaf leaf -> Array.length leaf.keys
  | Internal node -> Array.length node.ikeys

(* Rebalance child [ci] of internal node [parent] if it underflowed.
   Preference: borrow from a sibling that can spare, else merge. *)
let rebalance_child t parent ci =
  let child = parent.children.(ci) in
  if node_size child >= min_keys t then ()
  else begin
    let left_sib = if ci > 0 then Some (ci - 1) else None in
    let right_sib = if ci < Array.length parent.children - 1 then Some (ci + 1) else None in
    let borrow_from_left li =
      let left = parent.children.(li) in
      match left, child with
      | Leaf l, Leaf c ->
        let n = Array.length l.keys in
        c.keys <- array_insert c.keys 0 l.keys.(n - 1);
        c.values <- array_insert c.values 0 l.values.(n - 1);
        l.keys <- Array.sub l.keys 0 (n - 1);
        l.values <- Array.sub l.values 0 (n - 1);
        parent.ikeys.(li) <- c.keys.(0)
      | Internal l, Internal c ->
        let n = Array.length l.ikeys in
        (* rotate through the parent separator *)
        c.ikeys <- array_insert c.ikeys 0 parent.ikeys.(li);
        c.children <- array_insert c.children 0 l.children.(n);
        parent.ikeys.(li) <- l.ikeys.(n - 1);
        l.ikeys <- Array.sub l.ikeys 0 (n - 1);
        l.children <- Array.sub l.children 0 n
      | (Leaf _ | Internal _), _ -> assert false
    in
    let borrow_from_right ri =
      let right = parent.children.(ri) in
      match child, right with
      | Leaf c, Leaf r ->
        c.keys <- Array.append c.keys [| r.keys.(0) |];
        c.values <- Array.append c.values [| r.values.(0) |];
        r.keys <- array_remove r.keys 0;
        r.values <- array_remove r.values 0;
        parent.ikeys.(ci) <- r.keys.(0)
      | Internal c, Internal r ->
        c.ikeys <- Array.append c.ikeys [| parent.ikeys.(ci) |];
        c.children <- Array.append c.children [| r.children.(0) |];
        parent.ikeys.(ci) <- r.ikeys.(0);
        r.ikeys <- array_remove r.ikeys 0;
        r.children <- array_remove r.children 0
      | (Leaf _ | Internal _), _ -> assert false
    in
    let merge li =
      (* merge children li and li+1 into li *)
      let left = parent.children.(li) and right = parent.children.(li + 1) in
      (match left, right with
       | Leaf l, Leaf r ->
         l.keys <- Array.append l.keys r.keys;
         l.values <- Array.append l.values r.values;
         l.next <- r.next
       | Internal l, Internal r ->
         l.ikeys <- Array.concat [ l.ikeys; [| parent.ikeys.(li) |]; r.ikeys ];
         l.children <- Array.append l.children r.children
       | (Leaf _ | Internal _), _ -> assert false);
      parent.ikeys <- array_remove parent.ikeys li;
      parent.children <- array_remove parent.children (li + 1)
    in
    let can_spare i = node_size parent.children.(i) > min_keys t in
    match left_sib, right_sib with
    | Some li, _ when can_spare li -> borrow_from_left li
    | _, Some ri when can_spare ri -> borrow_from_right ri
    | Some li, _ -> merge li
    | None, Some _ -> merge ci
    | None, None -> ()  (* root child: handled by caller *)
  end

let rec remove_node t node k =
  match node with
  | Leaf leaf ->
    let i = lower_bound leaf.keys k in
    if i < Array.length leaf.keys && Tuple.compare leaf.keys.(i) k = 0 then begin
      leaf.keys <- array_remove leaf.keys i;
      leaf.values <- array_remove leaf.values i;
      t.cardinal <- t.cardinal - 1;
      true
    end
    else false
  | Internal node ->
    let ci = child_index node.ikeys k in
    let removed = remove_node t node.children.(ci) k in
    if removed then rebalance_child t node ci;
    removed

let remove t k =
  Mutex.protect t.latch (fun () ->
      match t.root with
      | None -> false
      | Some root ->
        let removed = remove_node t root k in
        (* collapse the root when it degenerates *)
        (match t.root with
         | Some (Internal node) when Array.length node.ikeys = 0 ->
           t.root <- Some node.children.(0)
         | Some (Leaf leaf) when Array.length leaf.keys = 0 -> t.root <- None
         | Some (Internal _ | Leaf _) | None -> ());
        removed)

type bound = Unbounded | Incl of Tuple.t | Excl of Tuple.t

let rec leftmost_leaf = function
  | Leaf leaf -> leaf
  | Internal node -> leftmost_leaf node.children.(0)

let above_lo lo k =
  match lo with
  | Unbounded -> true
  | Incl b -> Tuple.compare k b >= 0
  | Excl b -> Tuple.compare k b > 0

let below_hi hi k =
  match hi with
  | Unbounded -> true
  | Incl b -> Tuple.compare k b <= 0
  | Excl b -> Tuple.compare k b < 0

(* the in-range bindings are copied under the latch and [f] runs after
   it is released, so [f] may touch the heap or the tree itself *)
let iter_range t ~lo ~hi f =
  let rec walk acc leaf =
    let n = Array.length leaf.keys in
    let rec go acc i =
      if i = n then match leaf.next with Some next -> walk acc next | None -> acc
      else
        let k = leaf.keys.(i) in
        if not (below_hi hi k) then acc
        else go (if above_lo lo k then (k, leaf.values.(i)) :: acc else acc) (i + 1)
    in
    go acc 0
  in
  let bindings =
    Mutex.protect t.latch (fun () ->
        match t.root with
        | None -> []
        | Some root ->
          walk []
            (match lo with
             | Unbounded -> leftmost_leaf root
             | Incl k | Excl k -> find_leaf root k))
  in
  List.iter (fun (k, v) -> f k v) (List.rev bindings)

(* The tree is rebuilt from the keys outside the range, and the new root
   replaces the old one in one store.  Removing a log's purged prefix
   key by key would cost most keys a borrow or a merge. *)
let remove_range t ~lo ~hi =
  Mutex.protect t.latch (fun () ->
      let kept = ref [] in
      Option.iter
        (fun root ->
          let rec walk leaf =
            Array.iteri
              (fun i k ->
                if not (above_lo lo k && below_hi hi k) then kept := (k, leaf.values.(i)) :: !kept)
              leaf.keys;
            Option.iter walk leaf.next
          in
          walk (leftmost_leaf root))
        t.root;
      let kept = Array.of_list (List.rev !kept) in
      let removed = t.cardinal - Array.length kept in
      if removed > 0 then begin
        t.root <- pack t.branching (Array.map fst kept) (Array.map snd kept);
        t.cardinal <- Array.length kept
      end;
      removed)

let iter t f = iter_range t ~lo:Unbounded ~hi:Unbounded f

let to_list t =
  let acc = ref [] in
  iter t (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let min_binding t =
  match t.root with
  | None -> None
  | Some root ->
    let leaf = leftmost_leaf root in
    if Array.length leaf.keys = 0 then None else Some (leaf.keys.(0), leaf.values.(0))

let rec rightmost = function
  | Leaf leaf ->
    let n = Array.length leaf.keys in
    if n = 0 then None else Some (leaf.keys.(n - 1), leaf.values.(n - 1))
  | Internal node -> rightmost node.children.(Array.length node.children - 1)

let max_binding t = match t.root with None -> None | Some root -> rightmost root

let depth t =
  let rec go = function Leaf _ -> 1 | Internal node -> 1 + go node.children.(0) in
  match t.root with None -> 0 | Some root -> go root

let check_invariants t =
  let exception Bad of string in
  let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  try
    (match t.root with
     | None -> if t.cardinal <> 0 then fail "empty tree with cardinal %d" t.cardinal
     | Some root ->
       let leaves = ref [] in
       (* returns (depth, min_key, max_key, count) *)
       let rec go node ~is_root =
         match node with
         | Leaf leaf ->
           let n = Array.length leaf.keys in
           if n = 0 && not is_root then fail "empty non-root leaf";
           if (not is_root) && n < min_keys t then fail "leaf underflow: %d keys" n;
           if n > t.branching then fail "leaf overflow: %d keys" n;
           for i = 0 to n - 2 do
             if Tuple.compare leaf.keys.(i) leaf.keys.(i + 1) >= 0 then fail "leaf key order"
           done;
           leaves := leaf :: !leaves;
           if n = 0 then (1, None, None, 0)
           else (1, Some leaf.keys.(0), Some leaf.keys.(n - 1), n)
         | Internal node ->
           let nk = Array.length node.ikeys in
           if nk = 0 then fail "internal node with no keys";
           if (not is_root) && nk < min_keys t then fail "internal underflow";
           if nk > t.branching then fail "internal overflow";
           if Array.length node.children <> nk + 1 then fail "children/keys arity mismatch";
           for i = 0 to nk - 2 do
             if Tuple.compare node.ikeys.(i) node.ikeys.(i + 1) >= 0 then fail "separator order"
           done;
           let depths = ref [] in
           let total = ref 0 in
           let mins = Array.make (nk + 1) None and maxs = Array.make (nk + 1) None in
           Array.iteri
             (fun i child ->
               let d, mn, mx, c = go child ~is_root:false in
               depths := d :: !depths;
               total := !total + c;
               mins.(i) <- mn;
               maxs.(i) <- mx)
             node.children;
           (match !depths with
            | d :: rest -> if not (List.for_all (fun x -> x = d) rest) then fail "uneven depth"
            | [] -> fail "no children");
           (* each separator = lower bound of right subtree, > max of left *)
           for i = 0 to nk - 1 do
             (match maxs.(i) with
              | Some mx when Tuple.compare mx node.ikeys.(i) >= 0 ->
                fail "separator not greater than left subtree max"
              | Some _ | None -> ());
             match mins.(i + 1) with
             | Some mn when Tuple.compare mn node.ikeys.(i) < 0 ->
               fail "right subtree min below separator"
             | Some _ | None -> ()
           done;
           let d = match !depths with d :: _ -> d | [] -> 0 in
           (d + 1, mins.(0), maxs.(nk), !total)
       in
       let _, _, _, total = go root ~is_root:true in
       if total <> t.cardinal then fail "cardinal %d but %d keys reachable" t.cardinal total;
       (* leaf chain must visit exactly the leaves, left to right *)
       let chain = ref [] in
       let rec follow leaf =
         chain := leaf :: !chain;
         match leaf.next with Some next -> follow next | None -> ()
       in
       follow (leftmost_leaf root);
       if List.length !chain <> List.length !leaves then fail "leaf chain length mismatch");
    Ok ()
  with Bad msg -> Error msg
