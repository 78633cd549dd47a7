open Lg_support
open Ag_ast

(* Mutable builder state threaded through the phases. *)
type builder = {
  diag : Diag.collector;
  mutable symbols : Ir.symbol list;  (** reversed *)
  mutable attrs : (Ir.attr * Loc.span) list;  (** reversed *)
  types : (string, string) Hashtbl.t;  (** shared type names *)
  sym_index : (string, int) Hashtbl.t;
  mutable n_syms : int;
  mutable n_attrs : int;
}

(* [v], or the value already shared under [key] *)
let share tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      Hashtbl.add tbl key v;
      v

let sym_kind_text = function
  | Ir.Terminal -> "terminal"
  | Ir.Nonterminal -> "nonterminal"
  | Ir.Limb -> "limb"

let declare_symbol b kind (d : sym_decl) =
  match Hashtbl.find_opt b.sym_index d.sym_name with
  | Some _ ->
      Diag.error b.diag d.s_span "duplicate declaration of symbol %S" d.sym_name
  | None ->
      let s_id = b.n_syms in
      b.n_syms <- s_id + 1;
      Hashtbl.add b.sym_index d.sym_name s_id;
      let attr_ids = ref [] in
      let seen = Hashtbl.create 4 in
      List.iter
        (fun (a : attr_decl) ->
          if Hashtbl.mem seen a.attr_name then
            Diag.error b.diag a.a_span "duplicate attribute %S of symbol %S"
              a.attr_name d.sym_name
          else begin
            Hashtbl.add seen a.attr_name ();
            let a_kind =
              match (kind, a.attr_kind) with
              | Ir.Terminal, (Kintrinsic | Kplain) -> Some Ir.Intrinsic
              | Ir.Terminal, (Kinh | Ksyn) ->
                  Diag.error b.diag a.a_span
                    "attribute %S of terminal %S must be intrinsic (set by the parser)"
                    a.attr_name d.sym_name;
                  None
              | Ir.Nonterminal, Kinh -> Some Ir.Inherited
              | Ir.Nonterminal, Ksyn -> Some Ir.Synthesized
              | Ir.Nonterminal, Kintrinsic ->
                  Diag.error b.diag a.a_span
                    "intrinsic attribute %S on nonterminal %S: intrinsic attributes belong to terminals"
                    a.attr_name d.sym_name;
                  None
              | Ir.Nonterminal, Kplain ->
                  Diag.error b.diag a.a_span
                    "attribute %S of nonterminal %S must be declared inh or syn"
                    a.attr_name d.sym_name;
                  None
              | Ir.Limb, Kplain -> Some Ir.Limb_attr
              | Ir.Limb, (Kinh | Ksyn | Kintrinsic) ->
                  Diag.error b.diag a.a_span
                    "limb attribute %S of %S takes no inh/syn/intrinsic marker (limb attributes name common sub-expressions)"
                    a.attr_name d.sym_name;
                  None
            in
            match a_kind with
            | Some a_kind ->
                let a_id = b.n_attrs in
                b.n_attrs <- a_id + 1;
                b.attrs <-
                  ( {
                      Ir.a_id;
                      a_sym = s_id;
                      a_name = a.attr_name;
                      a_type = share b.types a.attr_type a.attr_type;
                      a_kind;
                    },
                    a.a_span )
                  :: b.attrs;
                attr_ids := a_id :: !attr_ids
            | None -> ()
          end)
        d.sym_attrs;
      b.symbols <-
        {
          Ir.s_id;
          s_name = d.sym_name;
          s_kind = kind;
          s_attrs = List.rev !attr_ids;
        }
        :: b.symbols

(* Occurrence resolution: positions are LHS, then RHS left to right; the
   numeric suffix selects among occurrences of the base symbol in that
   order ("S0 ::= V S1"). *)
let resolve_occurrence b ~symbols ~(prod : Ir.production) name span =
  let occurrences_of sym_id =
    let rhs_occs =
      Array.to_list prod.p_rhs
      |> List.mapi (fun i s -> (Ir.Rhs i, s))
      |> List.filter (fun (_, s) -> s = sym_id)
      |> List.map fst
    in
    if prod.p_lhs = sym_id then Ir.Lhs :: rhs_occs else rhs_occs
  in
  let limb_match =
    match prod.p_limb with
    | Some limb_sym
      when String.equal (symbols : Ir.symbol array).(limb_sym).Ir.s_name name ->
        Some Ir.Limb_occ
    | Some _ | None -> None
  in
  match limb_match with
  | Some occ -> Some occ
  | None -> (
      match Hashtbl.find_opt b.sym_index name with
      | Some sym_id -> (
          match occurrences_of sym_id with
          | [ occ ] -> Some occ
          | [] ->
              Diag.error b.diag span
                "symbol %S does not occur in this production" name;
              None
          | _ :: _ :: _ ->
              Diag.error b.diag span
                "symbol %S occurs more than once here; use a numeric suffix (%s0, %s1, ...)"
                name name name;
              None)
      | None -> (
          let base, suffix = Ag_ast.strip_occurrence_suffix name in
          match (Hashtbl.find_opt b.sym_index base, suffix) with
          | Some sym_id, Some k -> (
              let occs = occurrences_of sym_id in
              match List.nth_opt occs k with
              | Some occ -> Some occ
              | None ->
                  Diag.error b.diag span
                    "occurrence %S: symbol %S appears only %d time(s) in this production"
                    name base (List.length occs);
                  None)
          | _ ->
              Diag.error b.diag span "unknown symbol occurrence %S" name;
              None))

let check ?(source_lines = 0) ~diag (spec : Ag_ast.spec) =
  let b =
    {
      diag;
      symbols = [];
      attrs = [];
      types = Hashtbl.create 16;
      sym_index = Hashtbl.create 64;
      n_syms = 0;
      n_attrs = 0;
    }
  in
  (* ---- sections ---- *)
  let root_decl = ref None and strategy = ref None in
  List.iter
    (function
      | Sec_root (name, span) -> (
          match !root_decl with
          | None -> root_decl := Some (name, span)
          | Some _ -> Diag.error diag span "multiple root declarations")
      | Sec_strategy (s, span) -> (
          match !strategy with
          | None -> strategy := Some s
          | Some _ -> Diag.error diag span "multiple strategy declarations")
      | Sec_symbols _ | Sec_productions _ -> ())
    spec.sections;
  let strategy = Option.value ~default:Bottom_up !strategy in
  (* ---- symbols ---- *)
  List.iter
    (function
      | Sec_symbols (section, decls) ->
          let kind =
            match section with
            | Sterminals -> Ir.Terminal
            | Snonterminals -> Ir.Nonterminal
            | Slimbs -> Ir.Limb
          in
          List.iter (declare_symbol b kind) decls
      | Sec_root _ | Sec_strategy _ | Sec_productions _ -> ())
    spec.sections;
  let symbols = Array.of_list (List.rev b.symbols) in
  let attrs = Array.of_list (List.rev_map fst b.attrs) in
  let attr_spans = Array.of_list (List.rev_map snd b.attrs) in
  let attrs_of sym = List.map (fun a -> attrs.(a)) symbols.(sym).Ir.s_attrs in
  (* ---- productions (shapes) ---- *)
  let prod_decls =
    List.concat_map
      (function Sec_productions ps -> ps | _ -> [])
      spec.sections
  in
  let prods =
    List.mapi
      (fun p_id (pd : prod_decl) ->
        let resolve_sym ~want_rhs name =
          (* Occurrence suffixes appear in the phrase structure too:
             "bits0 ::= bits1 BIT" declares occurrences of symbol "bits". *)
          let lookup name =
            match Hashtbl.find_opt b.sym_index name with
            | Some id -> Some id
            | None -> (
                match Ag_ast.strip_occurrence_suffix name with
                | base, Some _ -> Hashtbl.find_opt b.sym_index base
                | _, None -> None)
          in
          match lookup name with
          | Some id -> (
              match (symbols.(id).Ir.s_kind, want_rhs) with
              | (Ir.Terminal | Ir.Nonterminal), true -> Some id
              | Ir.Nonterminal, false -> Some id
              | Ir.Terminal, false ->
                  Diag.error diag pd.p_span
                    "terminal %S cannot be the left-hand side of a production"
                    name;
                  None
              | Ir.Limb, _ ->
                  Diag.error diag pd.p_span
                    "limb symbol %S cannot appear in the phrase structure" name;
                  None)
          | None ->
              Diag.error diag pd.p_span "undeclared symbol %S in production"
                name;
              None
        in
        let lhs = resolve_sym ~want_rhs:false pd.lhs in
        let rhs = List.map (resolve_sym ~want_rhs:true) pd.rhs in
        let limb =
          match pd.limb with
          | None ->
              if pd.sems <> [] then
                Diag.warning diag pd.p_span
                  "production of %S has semantic functions but no limb symbol"
                  pd.lhs;
              None
          | Some name -> (
              match Hashtbl.find_opt b.sym_index name with
              | Some id when symbols.(id).Ir.s_kind = Ir.Limb -> Some id
              | Some id ->
                  Diag.error diag pd.p_span "%s %S used as a limb"
                    (sym_kind_text symbols.(id).Ir.s_kind)
                    name;
                  None
              | None ->
                  Diag.error diag pd.p_span "undeclared limb symbol %S" name;
                  None)
        in
        match (lhs, List.for_all Option.is_some rhs) with
        | Some p_lhs, true ->
            Some
              ( {
                  Ir.p_id;
                  p_lhs;
                  p_rhs = Array.of_list (List.map Option.get rhs);
                  p_limb = limb;
                  p_rules = [];
                  p_tag =
                    (match pd.limb with
                    | Some name -> name
                    | None -> Printf.sprintf "P%d" p_id);
                },
                pd )
        | _ -> None)
      prod_decls
  in
  if List.exists Option.is_none prods then None
  else begin
    let prods = List.map Option.get prods in
    (* ---- root ---- *)
    let root =
      match !root_decl with
      | Some (name, span) -> (
          match Hashtbl.find_opt b.sym_index name with
          | Some id when symbols.(id).Ir.s_kind = Ir.Nonterminal -> Some id
          | Some id ->
              Diag.error diag span "root symbol %S is a %s" name
                (sym_kind_text symbols.(id).Ir.s_kind);
              None
          | None ->
              Diag.error diag span "undeclared root symbol %S" name;
              None)
      | None -> (
          match prods with
          | ({ Ir.p_lhs; _ }, pd) :: _ ->
              Diag.warning diag pd.p_span
                "no root declaration; taking %S (left-hand side of the first production)"
                symbols.(p_lhs).Ir.s_name;
              Some p_lhs
          | [] ->
              Diag.error diag spec.sp_span "grammar has no productions";
              None)
    in
    (match root with
    | Some r ->
        List.iter
          (fun a ->
            if a.Ir.a_kind = Ir.Inherited then
              Diag.error diag attr_spans.(a.Ir.a_id)
                "root symbol %S must not have inherited attributes (%S)"
                symbols.(r).Ir.s_name a.Ir.a_name)
          (attrs_of r)
    | None -> ());
    (* ---- semantic functions ---- *)
    let rules = ref [] and n_rules = ref 0 in
    let defined : (int * Ir.aref, unit) Hashtbl.t = Hashtbl.create 128 in
    (* Equal references are one value across the IR, and so are their
       [Rhs i] occurrences, the names of called functions and the integer
       and boolean constants. *)
    let occs = Hashtbl.create 16 and arefs = Hashtbl.create 256 in
    let callees = Hashtbl.create 64 and consts = Hashtbl.create 64 in
    let const v = share consts v (Ir.Cconst v) in
    let share_aref (r : Ir.aref) =
      match Hashtbl.find_opt arefs r with
      | Some r -> r
      | None ->
          let occ =
            match r.Ir.occ with Ir.Rhs i -> share occs i r.Ir.occ | occ -> occ
          in
          share arefs r { r with Ir.occ }
    in
    let add_rule ~prod ~targets ~rhs ~implicit ~(span : Loc.span) =
      let r_id = !n_rules in
      incr n_rules;
      let r_rhs, deps = Ir.operands rhs in
      rules :=
        {
          Ir.r_id;
          r_prod = prod;
          r_targets = Array.of_list (List.map share_aref targets);
          r_rhs;
          r_deps = Array.map share_aref deps;
          r_implicit = implicit;
          r_line = span.start_p.line;
          r_col = span.start_p.col;
          r_start = span.start_p.offset;
          r_stop = span.end_p.offset;
        }
        :: !rules;
      r_id
    in
    let resolved_prods =
      List.map
        (fun ((prod : Ir.production), (pd : prod_decl)) ->
          let rule_ids = ref [] in
          let resolve_occ name span =
            resolve_occurrence b ~symbols ~prod name span
          in
          (* Resolve an occurrence.attribute pair. *)
          let resolve_dot occ_name attr_name span =
            match resolve_occ occ_name span with
            | None -> None
            | Some occ -> (
                let sym =
                  match occ with
                  | Ir.Lhs -> prod.Ir.p_lhs
                  | Ir.Rhs i -> prod.Ir.p_rhs.(i)
                  | Ir.Limb_occ -> Option.get prod.Ir.p_limb
                in
                match
                  List.find_opt
                    (fun a -> String.equal a.Ir.a_name attr_name)
                    (attrs_of sym)
                with
                | Some a -> Some { Ir.occ; attr = a.Ir.a_id }
                | None ->
                    Diag.error diag span "symbol %S has no attribute %S"
                      symbols.(sym).Ir.s_name attr_name;
                    None)
          in
          let resolve_bare_limb name _span =
            match prod.Ir.p_limb with
            | Some limb_sym -> (
                match
                  List.find_opt
                    (fun a -> String.equal a.Ir.a_name name)
                    (attrs_of limb_sym)
                with
                | Some a -> Some { Ir.occ = Ir.Limb_occ; attr = a.Ir.a_id }
                | None -> None)
            | None -> None
          in
          (* Expression compilation; [top] is true only where a
             conditional is legal. *)
          let rec compile ~top e =
            match e with
            | Enum (n, _) -> Some (const (Value.Int n))
            | Ebool (v, _) -> Some (const (Value.Bool v))
            | Estr (s, _) -> Some (Ir.Cconst (Value.Str s))
            | Eident (name, span) -> (
                match resolve_bare_limb name span with
                | Some aref -> Some (Ir.Cref aref)
                | None -> (
                    match Value.lookup_constant name with
                    | Some v -> Some (Ir.Cconst v)
                    | None ->
                        (* Uninterpreted constant, as the paper specifies;
                           but a name that is clearly a symbol occurrence
                           with a typo deserves an error. *)
                        if
                          Hashtbl.mem b.sym_index name
                          || Option.is_some
                               (let base, s = Ag_ast.strip_occurrence_suffix name in
                                if Option.is_some s && Hashtbl.mem b.sym_index base
                                then Some ()
                                else None)
                        then begin
                          Diag.error diag span
                            "occurrence %S used without an attribute selection"
                            name;
                          None
                        end
                        else Some (Ir.Cconst (Value.Term (name, [])))))
            | Edot (occ_name, attr_name, span) -> (
                match resolve_dot occ_name attr_name span with
                | Some aref -> Some (Ir.Cref aref)
                | None -> None)
            | Ecall (f, args, _) ->
                let args = List.map (compile ~top:false) args in
                if List.for_all Option.is_some args then
                  Some (Ir.Ccall (share callees f f, List.map Option.get args))
                else None
            | Ebinop (op, x, y, _) -> (
                match (compile ~top:false x, compile ~top:false y) with
                | Some a, Some b -> Some (Ir.Cbinop (op, a, b))
                | _ -> None)
            | Enot (x, _) ->
                Option.map (fun a -> Ir.Cnot a) (compile ~top:false x)
            | Eneg (x, _) ->
                Option.map (fun a -> Ir.Cneg a) (compile ~top:false x)
            | Eif (branches, else_, span) ->
                if not top then begin
                  Diag.error diag span
                    "conditional expressions may not appear inside operands or argument lists (name the value with a limb attribute instead)";
                  None
                end
                else
                  let compile_branch { cond; values } =
                    match
                      ( compile ~top:false cond,
                        List.map (compile ~top:true) values )
                    with
                    | Some c, vs when List.for_all Option.is_some vs ->
                        Some (c, List.map Option.get vs)
                    | _ -> None
                  in
                  let branches = List.map compile_branch branches in
                  let else_ = List.map (compile ~top:true) else_ in
                  if
                    List.for_all Option.is_some branches
                    && List.for_all Option.is_some else_
                  then
                    Some
                      (Ir.Cif
                         ( List.map Option.get branches,
                           List.map Option.get else_ ))
                  else None
          in
          let check_target aref span =
            let attr = attrs.(aref.Ir.attr) in
            match (aref.Ir.occ, attr.Ir.a_kind) with
            | Ir.Lhs, Ir.Synthesized
            | Ir.Rhs _, Ir.Inherited
            | Ir.Limb_occ, Ir.Limb_attr ->
                true
            | Ir.Lhs, Ir.Inherited ->
                Diag.error diag span
                  "inherited attribute %S of the left-hand side is defined by the surrounding production, not here"
                  attr.Ir.a_name;
                false
            | Ir.Rhs _, Ir.Synthesized ->
                Diag.error diag span
                  "synthesized attribute %S of a right-hand-side symbol is defined by that symbol's own productions"
                  attr.Ir.a_name;
                false
            | _, Ir.Intrinsic ->
                Diag.error diag span
                  "intrinsic attribute %S is set by the parser; no semantic function may define it"
                  attr.Ir.a_name;
                false
            | _, _ ->
                Diag.error diag span "attribute %S cannot be defined here"
                  attr.Ir.a_name;
                false
          in
          let record_definition aref span =
            let fresh = not (Hashtbl.mem defined (prod.Ir.p_id, aref)) in
            if fresh then Hashtbl.add defined (prod.Ir.p_id, aref) ()
            else
              Diag.error diag span
                "attribute occurrence already defined in this production";
            fresh
          in
          List.iter
            (fun (f : semfn) ->
              let targets =
                List.map
                  (function
                    | Tdot (o, a, span) -> (resolve_dot o a span, span)
                    | Tbare (name, span) -> (
                        match resolve_bare_limb name span with
                        | Some aref -> (Some aref, span)
                        | None ->
                            Diag.error diag span
                              "%S is not a limb attribute of this production"
                              name;
                            (None, span)))
                  f.targets
              in
              let rhs = compile ~top:true f.rhs in
              if List.for_all (fun (t, _) -> Option.is_some t) targets then begin
                let targets =
                  List.map (fun (t, span) -> (Option.get t, span)) targets
                in
                let valid =
                  List.for_all (fun (t, span) -> check_target t span) targets
                in
                let fresh =
                  List.for_all
                    (fun (t, span) -> record_definition t span)
                    targets
                in
                match rhs with
                | Some rhs when valid && fresh -> (
                    (* arity *)
                    match Ir.arity rhs with
                    | Some n
                      when n = List.length targets
                           || (n = 1 && List.length targets >= 1) ->
                        rule_ids :=
                          add_rule ~prod:prod.Ir.p_id
                            ~targets:(List.map fst targets) ~rhs
                            ~implicit:false ~span:f.f_span
                          :: !rule_ids
                    | Some n ->
                        Diag.error diag f.f_span
                          "semantic function defines %d attribute-occurrence(s) but its right-hand side produces %d value(s)"
                          (List.length targets) n
                    | None ->
                        Diag.error diag f.f_span
                          "the branches of this conditional produce differing numbers of values")
                | _ -> ()
              end)
            pd.sems;
          (prod, pd.p_span, List.rev !rule_ids))
        prods
    in
    (* ---- implicit copy-rules and completeness ---- *)
    let final_prods =
      List.map
        (fun ((prod : Ir.production), p_span, rule_ids) ->
          let is_defined aref = Hashtbl.mem defined (prod.Ir.p_id, aref) in
          let implicit_rules =
            Implicit.insert ~symbols ~attrs ~prod ~defined:is_defined
          in
          let implicit_ids =
            List.map
              (fun (target, source) ->
                Hashtbl.add defined (prod.Ir.p_id, target) ();
                add_rule ~prod:prod.Ir.p_id ~targets:[ target ]
                  ~rhs:(Ir.Cref source) ~implicit:true ~span:p_span)
              implicit_rules
          in
          (* completeness *)
          let require aref what =
            if not (Hashtbl.mem defined (prod.Ir.p_id, aref)) then
              Diag.error diag p_span
                "production %s: %s %S is never defined (and no implicit copy-rule applies)"
                prod.Ir.p_tag what
                attrs.(aref.Ir.attr).Ir.a_name
          in
          List.iter
            (fun a ->
              if a.Ir.a_kind = Ir.Synthesized then
                require
                  { Ir.occ = Ir.Lhs; attr = a.Ir.a_id }
                  "synthesized left-hand-side attribute")
            (attrs_of prod.Ir.p_lhs);
          Array.iteri
            (fun i sym ->
              List.iter
                (fun a ->
                  if a.Ir.a_kind = Ir.Inherited then
                    require
                      { Ir.occ = Ir.Rhs i; attr = a.Ir.a_id }
                      "inherited right-hand-side attribute")
                (attrs_of sym))
            prod.Ir.p_rhs;
          (match prod.Ir.p_limb with
          | Some limb_sym ->
              List.iter
                (fun a ->
                  require
                    { Ir.occ = Ir.Limb_occ; attr = a.Ir.a_id }
                    "limb attribute")
                (attrs_of limb_sym)
          | None -> ());
          { prod with Ir.p_rules = rule_ids @ implicit_ids })
        resolved_prods
    in
    match root with
    | Some root when Diag.is_ok diag ->
        let ir =
          {
            Ir.grammar_name = spec.name;
            source_file = spec.sp_span.file;
            symbols;
            attrs;
            prods = Array.of_list final_prods;
            rules =
              (let arr = Array.of_list (List.rev !rules) in
               arr);
            root;
            strategy;
            source_lines;
          }
        in
        (* Phrase-structure sanity via the shared CFG. *)
        (try
           let cfg = Ir.to_cfg ir in
           List.iter
             (fun nt ->
               Diag.warning diag spec.sp_span "nonterminal %S is unreachable"
                 (Lg_grammar.Cfg.nonterminal_name cfg nt))
             (Lg_grammar.Cfg.unreachable cfg);
           List.iter
             (fun nt ->
               Diag.warning diag spec.sp_span
                 "nonterminal %S derives no terminal string"
                 (Lg_grammar.Cfg.nonterminal_name cfg nt))
             (Lg_grammar.Cfg.unproductive cfg)
         with Lg_grammar.Cfg.Ill_formed msg ->
           Diag.error diag spec.sp_span "ill-formed phrase structure: %s" msg);
        if Diag.is_ok diag then Some ir else None
    | _ -> None
  end

let check_exn ?source_lines spec =
  let diag = Diag.create () in
  match check ?source_lines ~diag spec with
  | Some ir when Diag.is_ok diag -> ir
  | _ -> failwith (Format.asprintf "Check.check_exn:@.%a" Diag.pp_all diag)
