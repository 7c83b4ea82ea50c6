//! The chase engine (Definition 2 of the paper, with the two-phase
//! discipline of Section 4).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use flogic_model::{
    sigma_fl, Atom, ConjunctiveQuery, Egd, Pred, RuleId, RuleSet, SigmaRule, Tgd, SIGMA_RULE_COUNT,
};
use flogic_term::{NullGen, Subst, Term};

use crate::governor::{Budget, ChaseError, ExhaustReason};
use crate::graph::{ChaseArc, ConjunctId};

/// How many candidates the apply loop processes between governor
/// checkpoints. Checkpoints only read state, so the constant trades check
/// latency against overhead — it never affects which applications happen.
const CHECK_EVERY: u64 = 1024;

/// Tuning knobs for a chase run.
#[derive(Clone, Debug)]
pub struct ChaseOptions {
    /// Maximum conjunct level; applications that would create a conjunct
    /// beyond this level are skipped (Theorem 12 needs levels up to
    /// `2·|q1|·|q2|` only).
    pub level_bound: u32,
    /// Safety cap on the number of conjuncts; exceeded ⇒
    /// [`ChaseOutcome::Exhausted`] with [`ExhaustReason::Conjuncts`].
    pub max_conjuncts: usize,
    /// Worker threads for discovering applicable rule instances in each
    /// frontier batch. `1` (the default) runs fully sequentially; `0`
    /// means "use the machine's available parallelism". The chase result
    /// is bit-identical for every setting: discovery is a pure read of a
    /// frozen snapshot, and applications are merged back in frontier
    /// order regardless of which worker found them.
    pub threads: usize,
    /// Resource budget (deadline, step/byte caps, cancellation). The
    /// default is unlimited.
    pub budget: Budget,
    /// The rule set to chase with. Defaults to the built-in `Σ_FL`; any
    /// set structurally equal to it (`RuleSet::is_sigma_fl`) is routed
    /// onto the specialized `Σ_FL` code paths, so a parsed copy of the
    /// built-in rules behaves bit-identically to the default. Custom sets
    /// must be admitted by the Σ-admission analyzer (`flogic-analysis`)
    /// before they reach the engine.
    pub sigma: Arc<RuleSet>,
}

impl Default for ChaseOptions {
    fn default() -> Self {
        ChaseOptions {
            level_bound: u32::MAX,
            max_conjuncts: 1_000_000,
            threads: 1,
            budget: Budget::default(),
            sigma: RuleSet::sigma_fl().clone(),
        }
    }
}

/// How a chase run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaseOutcome {
    /// Fixpoint reached: the chase is finite and fully materialized.
    Completed,
    /// Fixpoint up to the level bound: some applications beyond the bound
    /// were skipped (the full chase may be infinite).
    LevelBounded,
    /// ρ4 equated two distinct rigid constants — the construction fails
    /// (Definition 2(1)(a)). The query is unsatisfiable on every database
    /// that satisfies `Σ_FL`.
    Failed {
        /// One of the clashing constants.
        left: Term,
        /// The other clashing constant.
        right: Term,
    },
    /// A resource limit stopped the run; the chase is a well-formed
    /// prefix. Partial progress is still observable through
    /// [`Chase::len`], [`Chase::max_level`] and [`Chase::stats`].
    Exhausted {
        /// Which limit fired.
        reason: ExhaustReason,
    },
}

impl ChaseOutcome {
    /// True when a resource limit stopped the run.
    pub fn is_exhausted(&self) -> bool {
        matches!(self, ChaseOutcome::Exhausted { .. })
    }
}

/// Counters describing a chase run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Successful applications per rule (index = `RuleId::index()`).
    /// Custom rule sets with more than [`SIGMA_RULE_COUNT`] rules spill
    /// applications of the excess rules into [`ChaseStats::applications_tail`].
    pub applications: [usize; SIGMA_RULE_COUNT],
    /// Applications of custom rules with `RuleId::index() >= SIGMA_RULE_COUNT`
    /// (zero on every `Σ_FL` run).
    pub applications_tail: usize,
    /// Number of term merges performed by ρ4.
    pub merges: usize,
    /// EGD merge rounds: rewrites of the chase through one union-find of
    /// demanded equations (the EGD "fires" by merging).
    pub merge_rounds: usize,
    /// The longest union-find chain any merge round walked.
    pub union_find_depth: u32,
    /// Number of cross-arcs recorded.
    pub cross_arcs: usize,
    /// Labelled nulls invented by ρ5.
    pub nulls_invented: u64,
    /// Resolution steps: candidate rule instances examined by the apply
    /// loop (whether or not they produced a conjunct). This is the unit
    /// the [`Budget::max_steps`] cap counts in.
    pub steps: u64,
}

impl ChaseStats {
    /// Total successful rule applications.
    pub fn total_applications(&self) -> usize {
        self.applications.iter().sum::<usize>() + self.applications_tail
    }

    /// Firings per rule, ρ1…ρ12: [`ChaseStats::applications`], except
    /// that ρ4's slot also counts the EGD merge rounds (the EGD fires by
    /// merging).
    pub fn rule_firings(&self) -> [usize; SIGMA_RULE_COUNT] {
        let mut firings = self.applications;
        firings[RuleId::R4.index()] += self.merge_rounds;
        firings
    }

    /// Records one successful application of `rule`.
    fn record_application(&mut self, rule: RuleId) {
        match self.applications.get_mut(rule.index()) {
            Some(slot) => *slot += 1,
            None => self.applications_tail += 1,
        }
    }
}

/// The conjuncts rule applications created at one chase level (see
/// [`Chase::level_growth`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelGrowth {
    /// Conjuncts created at this level.
    pub created: usize,
    /// Of those, the ones whose rule invented a labelled null.
    pub invented: usize,
}

/// An applicable rule instance discovered by a frontier batch, waiting for
/// the sequential application step. `head` has the rule binding already
/// applied; `existential` is ρ5's fresh-value variable (still unbound).
struct Candidate {
    rule: RuleId,
    head: Atom,
    existential: Option<Term>,
    parents: Vec<ConjunctId>,
}

#[derive(Clone, Debug)]
struct Node {
    atom: Atom,
    level: u32,
    rule: Option<RuleId>,
    parents: Vec<ConjunctId>,
}

/// The chase of a query w.r.t. `Σ_FL`: conjuncts, levels, arcs, and the
/// (possibly rewritten) query head.
///
/// Build one with [`chase_minus`] (terminating, `Σ_FL − ρ5`) or
/// [`chase_bounded`] (all rules, level-capped). All accessors resolve
/// merge redirects, so ids handed out before a ρ4 merge stay valid.
#[derive(Clone, Debug)]
pub struct Chase {
    nodes: Vec<Node>,
    /// Union-find over node ids; `redirect[i] == i` for live roots.
    redirect: Vec<u32>,
    /// Canonical atom → live root id.
    canon: HashMap<Atom, ConjunctId>,
    /// Live root ids per predicate.
    by_pred: [Vec<ConjunctId>; 6],
    /// Live root ids per `(predicate, argument position, term)` — the
    /// selective index used for rule matching and the ρ4 scan. Without it,
    /// matching degenerates to per-predicate scans, which is quadratic in
    /// the chase size and makes branching chases (several pump threads per
    /// invented value) intractable.
    by_pos: HashMap<(Pred, u8, Term), Vec<ConjunctId>>,
    arcs: Vec<ChaseArc>,
    arc_seen: HashSet<(u32, u32, RuleId, bool)>,
    head: Vec<Term>,
    nulls: NullGen,
    merge_map: Subst,
    outcome: ChaseOutcome,
    stats: ChaseStats,
    /// Set when an application was skipped because of the level bound.
    hit_bound: bool,
    /// Record cross-arcs (enabled for the bounded phase only; level-0
    /// cross-arcs carry no information and would bloat the graph).
    record_cross: bool,
    /// The rule set being chased with. A structurally-`Σ_FL` set runs the
    /// specialized ρ4 scan; any other set runs its own EGDs generically.
    sigma: Arc<RuleSet>,
}

impl Chase {
    fn new(q: &ConjunctiveQuery, sigma: &Arc<RuleSet>) -> Chase {
        let mut chase = Chase {
            nodes: Vec::new(),
            redirect: Vec::new(),
            canon: HashMap::new(),
            by_pred: Default::default(),
            by_pos: HashMap::new(),
            arcs: Vec::new(),
            arc_seen: HashSet::new(),
            head: q.head().to_vec(),
            nulls: NullGen::new(),
            merge_map: Subst::new(),
            outcome: ChaseOutcome::Completed,
            stats: ChaseStats::default(),
            hit_bound: false,
            record_cross: false,
            sigma: Arc::clone(sigma),
        };
        for atom in q.body() {
            if chase.insert(*atom, 0, None, Vec::new()).is_none() {
                chase.exhaust(ExhaustReason::Conjuncts);
                break;
            }
        }
        chase
    }

    // ---- id plumbing -----------------------------------------------------

    fn resolve(&self, id: ConjunctId) -> ConjunctId {
        let mut i = id.0;
        while self.redirect[i as usize] != i {
            i = self.redirect[i as usize];
        }
        ConjunctId(i)
    }

    fn is_live(&self, id: ConjunctId) -> bool {
        self.redirect[id.index()] == id.0
    }

    /// Inserts `atom` if not present; returns `(root id, was_new)`, or
    /// `None` when the `u32` conjunct-id space is exhausted (the caller
    /// stops the run with [`ExhaustReason::Conjuncts`] instead of
    /// panicking — no input, however oversized, aborts the process).
    fn insert(
        &mut self,
        atom: Atom,
        level: u32,
        rule: Option<RuleId>,
        parents: Vec<ConjunctId>,
    ) -> Option<(ConjunctId, bool)> {
        if let Some(&id) = self.canon.get(&atom) {
            return Some((id, false));
        }
        let id = ConjunctId(u32::try_from(self.nodes.len()).ok()?);
        self.nodes.push(Node {
            atom,
            level,
            rule,
            parents,
        });
        self.redirect.push(id.0);
        self.canon.insert(atom, id);
        self.index(id, atom);
        Some((id, true))
    }

    /// Appends live root `id` to the per-predicate and per-position lists
    /// of `atom`.
    fn index(&mut self, id: ConjunctId, atom: Atom) {
        self.by_pred[atom.pred().index()].push(id);
        for (pos, &term) in atom.args().iter().enumerate() {
            self.by_pos
                .entry((atom.pred(), pos as u8, term))
                .or_default()
                .push(id);
        }
    }

    /// Live root ids with `term` at argument `pos` of a `pred` conjunct.
    fn posting(&self, pred: Pred, pos: u8, term: Term) -> &[ConjunctId] {
        self.by_pos
            .get(&(pred, pos, term))
            .map_or(&[], Vec::as_slice)
    }

    /// Candidate conjuncts for matching `pattern` under the partial rule
    /// binding `s`: the most selective position index available, falling
    /// back to the per-predicate list when no position is bound. (A bound
    /// rule variable's image may itself be a query variable — that is a
    /// concrete chase value and indexes fine.) Every candidate still
    /// requires full unification.
    fn candidates(&self, pattern: &Atom, s: &Subst) -> &[ConjunctId] {
        let image = |arg: Term| if arg.is_var() { s.get(arg) } else { Some(arg) };
        self.most_selective(pattern, image)
    }

    /// Live root ids that may match `probe`, every variable of which
    /// counts as unbound: the shortest `(predicate, position, term)` list
    /// over its non-variable positions, or every live conjunct of its
    /// predicate. Lists hold live roots in ascending id order. This is
    /// the lookup the homomorphism search runs on a chase, with the
    /// search's binding already applied to `probe`.
    pub fn probe_candidates(&self, probe: &Atom) -> &[ConjunctId] {
        self.most_selective(probe, |arg| (!arg.is_var()).then_some(arg))
    }

    /// The shortest index list over the positions of `pattern` that `key`
    /// maps to a term, or the per-predicate list when it maps none.
    fn most_selective(&self, pattern: &Atom, key: impl Fn(Term) -> Option<Term>) -> &[ConjunctId] {
        let mut best: Option<&[ConjunctId]> = None;
        for (pos, &arg) in pattern.args().iter().enumerate() {
            let Some(term) = key(arg) else {
                continue;
            };
            let list = self.posting(pattern.pred(), pos as u8, term);
            if best.map_or(true, |b| list.len() < b.len()) {
                best = Some(list);
            }
        }
        best.unwrap_or(&self.by_pred[pattern.pred().index()])
    }

    fn add_arc(&mut self, from: ConjunctId, to: ConjunctId, rule: RuleId, cross: bool) {
        let key = (from.0, to.0, rule, cross);
        if self.arc_seen.insert(key) {
            self.arcs.push(ChaseArc {
                from,
                to,
                rule,
                cross,
            });
            if cross {
                self.stats.cross_arcs += 1;
            }
        }
    }

    // ---- public accessors ------------------------------------------------

    /// Iterates over the live conjuncts as `(id, atom, level)`.
    pub fn conjuncts(&self) -> impl Iterator<Item = (ConjunctId, &Atom, u32)> {
        self.nodes.iter().enumerate().filter_map(move |(i, n)| {
            let id = ConjunctId(i as u32);
            self.is_live(id).then_some((id, &n.atom, n.level))
        })
    }

    /// Number of live conjuncts.
    pub fn len(&self) -> usize {
        self.canon.len()
    }

    /// True if the chase has no conjuncts (cannot happen for valid queries).
    pub fn is_empty(&self) -> bool {
        self.canon.is_empty()
    }

    /// The atom of a conjunct (id may be pre-merge; it is resolved).
    pub fn atom(&self, id: ConjunctId) -> &Atom {
        &self.nodes[self.resolve(id).index()].atom
    }

    /// The level of a conjunct (Definition 3(3)).
    pub fn level(&self, id: ConjunctId) -> u32 {
        self.nodes[self.resolve(id).index()].level
    }

    /// The rule that generated a conjunct (`None` for `body(q)` / level-0
    /// phase conjuncts).
    pub fn rule_of(&self, id: ConjunctId) -> Option<RuleId> {
        self.nodes[self.resolve(id).index()].rule
    }

    /// The premise conjuncts from which this conjunct was generated.
    pub fn parents_of(&self, id: ConjunctId) -> Vec<ConjunctId> {
        self.nodes[self.resolve(id).index()]
            .parents
            .iter()
            .map(|&p| self.resolve(p))
            .collect()
    }

    /// Looks up a conjunct by atom.
    pub fn find(&self, atom: &Atom) -> Option<ConjunctId> {
        self.canon.get(atom).copied()
    }

    /// All arcs, with endpoints resolved through merges.
    pub fn arcs(&self) -> impl Iterator<Item = ChaseArc> + '_ {
        self.arcs.iter().map(|a| ChaseArc {
            from: self.resolve(a.from),
            to: self.resolve(a.to),
            rule: a.rule,
            cross: a.cross,
        })
    }

    /// The query head as rewritten by the chase (Example 1 of the paper:
    /// ρ4 merges may change head variables).
    pub fn head(&self) -> &[Term] {
        &self.head
    }

    /// The accumulated ρ4 merge map (normalized).
    pub fn merge_map(&self) -> &Subst {
        &self.merge_map
    }

    /// How the run ended.
    pub fn outcome(&self) -> ChaseOutcome {
        self.outcome
    }

    /// True if the construction failed (ρ4 on two distinct constants).
    pub fn is_failed(&self) -> bool {
        matches!(self.outcome, ChaseOutcome::Failed { .. })
    }

    /// True if a resource limit stopped the run (the chase is a prefix).
    pub fn is_exhausted(&self) -> bool {
        self.outcome.is_exhausted()
    }

    /// Approximate bytes materialized by the chase graph: node storage,
    /// arcs, and an estimate of the per-entry index overhead. This is the
    /// quantity [`Budget::max_bytes`] caps, and the unit resident
    /// snapshot caches (the `flqd` server's per-`q1` chase cache) charge
    /// entries at — a bookkeeping estimate, not an allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        // Each node also appears in `canon`, `by_pred` and (per argument)
        // `by_pos`; 64 bytes is a deliberately rough per-node estimate of
        // that index overhead.
        self.nodes.len() * (size_of::<Node>() + 64)
            + self.arcs.len() * (size_of::<ChaseArc>() + size_of::<(u32, u32, RuleId, bool)>())
            + self.by_pos.len() * size_of::<(Pred, u8, Term)>()
    }

    /// Stops the run with an [`ChaseOutcome::Exhausted`] outcome.
    fn exhaust(&mut self, reason: ExhaustReason) {
        self.outcome = ChaseOutcome::Exhausted { reason };
    }

    /// Returns the first exceeded limit, if any. A pure read: calling it
    /// (at whatever frequency) never changes which rule applications
    /// happen, so governed runs that stay within budget are bit-identical
    /// to ungoverned ones.
    fn governor_checkpoint(&self, budget: &Budget) -> Option<ExhaustReason> {
        if budget.cancel.is_cancelled() {
            return Some(ExhaustReason::Cancelled);
        }
        if budget.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(ExhaustReason::Deadline);
        }
        if budget.max_bytes.is_some_and(|mb| self.approx_bytes() >= mb) {
            return Some(ExhaustReason::Bytes);
        }
        None
    }

    /// Run statistics.
    pub fn stats(&self) -> &ChaseStats {
        &self.stats
    }

    /// The largest level of any live conjunct.
    pub fn max_level(&self) -> u32 {
        self.conjuncts().map(|(_, _, l)| l).max().unwrap_or(0)
    }

    /// The conjuncts rule applications created, per level (index =
    /// level), up to the deepest level any application reached. Counts
    /// every node a rule made, merged-away ones included, so the column
    /// totals equal [`ChaseStats::total_applications`]. `chase⁻`
    /// conjuncts sit at level 0 (Section 4); the query body is not
    /// counted.
    pub fn level_growth(&self) -> Vec<LevelGrowth> {
        let mut levels: Vec<LevelGrowth> = Vec::new();
        for node in &self.nodes {
            let Some(rule) = node.rule else {
                continue;
            };
            let level = node.level as usize;
            if levels.len() <= level {
                levels.resize(level + 1, LevelGrowth::default());
            }
            levels[level].created += 1;
            levels[level].invented += usize::from(self.invents(rule));
        }
        levels
    }

    /// True when `rule` is an existential TGD of the chased set, i.e.
    /// every application of it invented a labelled null.
    fn invents(&self, rule: RuleId) -> bool {
        matches!(
            self.sigma.rules().get(rule.index()),
            Some(SigmaRule::Tgd(t)) if t.existential.is_some()
        )
    }

    /// Live conjunct ids at a given level.
    pub fn at_level(&self, level: u32) -> Vec<ConjunctId> {
        self.conjuncts()
            .filter(|&(_, _, l)| l == level)
            .map(|(id, _, _)| id)
            .collect()
    }

    // ---- EGDs -------------------------------------------------------------

    /// Applies the active EGDs to exhaustion (Definition 2, chase step
    /// (a)): the specialized ρ4 scan for the built-in `Σ_FL`, or the
    /// generic per-EGD matcher for a custom rule set.
    ///
    /// Returns `Err((left, right))` when two distinct rigid constants must
    /// be equated, `Ok(true)` if any merge happened.
    fn drain_egds(&mut self) -> Result<bool, (Term, Term)> {
        if self.sigma.is_sigma_fl() {
            return self.egd_fixpoint();
        }
        let sigma = Arc::clone(&self.sigma);
        self.egd_fixpoint_general(&sigma.egds())
    }

    /// The generic EGD fixpoint for custom rule sets: each EGD's body is
    /// matched with [`Chase::match_body_pinned`] (pinned on its first
    /// atom, over a cloned per-predicate index in numeric id order, so
    /// enumeration order is a pure function of the chase history), and
    /// every homomorphism demands one equation. Union-find semantics are
    /// identical to the ρ4 scan: lexicographically smaller representative
    /// wins, two distinct constants clash.
    fn egd_fixpoint_general(&mut self, egds: &[&Egd]) -> Result<bool, (Term, Term)> {
        let mut changed_any = false;
        loop {
            let mut uf: HashMap<Term, Term> = HashMap::new();
            let mut pending = false;
            for egd in egds {
                let Some(first) = egd.body.first() else {
                    continue;
                };
                let ids: Vec<ConjunctId> = self.by_pred[first.pred().index()].clone();
                let mut equations: Vec<(Term, Term)> = Vec::new();
                for id in ids {
                    self.match_body_pinned(&egd.body, 0, id, &mut |s, _| {
                        equations.push((s.apply(egd.left), s.apply(egd.right)));
                    });
                }
                for (l, r) in equations {
                    let rl = find(&uf, l);
                    let rr = find(&uf, r);
                    if rl != rr {
                        if rl.is_const() && rr.is_const() {
                            return Err((rl.min(rr), rl.max(rr)));
                        }
                        let (keep, drop) = if rl < rr { (rl, rr) } else { (rr, rl) };
                        uf.insert(drop, keep);
                        pending = true;
                    }
                }
            }
            if !pending {
                return Ok(changed_any);
            }
            self.commit_merge(&uf);
            changed_any = true;
        }
    }

    /// Applies ρ4 to exhaustion (Definition 2, chase step (a)).
    ///
    /// Returns `Err((left, right))` when two distinct rigid constants must
    /// be equated, `Ok(true)` if any merge happened.
    fn egd_fixpoint(&mut self) -> Result<bool, (Term, Term)> {
        let mut changed_any = false;
        loop {
            // Collect all equations demanded by ρ4 in the current state.
            let mut uf: HashMap<Term, Term> = HashMap::new();
            let mut pending = false;
            for &fid in &self.by_pred[Pred::Funct.index()] {
                let f = &self.nodes[fid.index()].atom;
                let (a, o) = (f.arg(0), f.arg(1));
                let mut first: Option<Term> = None;
                for &did in self.posting(Pred::Data, 0, o) {
                    let d = &self.nodes[did.index()].atom;
                    if d.arg(0) == o && d.arg(1) == a {
                        match first {
                            None => first = Some(d.arg(2)),
                            Some(v) => {
                                let rv = find(&uf, v);
                                let rw = find(&uf, d.arg(2));
                                if rv != rw {
                                    if rv.is_const() && rw.is_const() {
                                        return Err((rv.min(rw), rv.max(rw)));
                                    }
                                    // Lexicographically smaller term is the
                                    // representative (Definition 2(1)(b)).
                                    let (keep, drop) = if rv < rw { (rv, rw) } else { (rw, rv) };
                                    uf.insert(drop, keep);
                                    pending = true;
                                }
                            }
                        }
                    }
                }
            }
            if !pending {
                return Ok(changed_any);
            }
            self.commit_merge(&uf);
            changed_any = true;
        }
    }

    /// Normalizes a union-find of demanded equations into a substitution,
    /// rewrites the whole chase through it, and counts the merge round.
    /// Shared tail of both EGD fixpoints.
    fn commit_merge(&mut self, uf: &HashMap<Term, Term>) {
        let mut merge = Subst::new();
        for &k in uf.keys() {
            let (r, hops) = find_depth(uf, k);
            self.stats.union_find_depth = self.stats.union_find_depth.max(hops);
            merge.bind(k, r);
        }
        self.stats.merge_rounds += 1;
        self.apply_merge(&merge);
    }

    /// Rewrites every conjunct and the head through `merge`, fusing
    /// conjuncts that become equal (the lower-level one wins).
    fn apply_merge(&mut self, merge: &Subst) {
        self.stats.merges += merge.len();
        for t in &mut self.head {
            *t = merge.apply(*t);
        }
        self.merge_map = self.merge_map.compose(merge);
        // Rewrite atoms of live nodes.
        let live: Vec<ConjunctId> = (0..self.nodes.len() as u32)
            .map(ConjunctId)
            .filter(|&i| self.is_live(i))
            .collect();
        self.canon.clear();
        for arr in &mut self.by_pred {
            arr.clear();
        }
        self.by_pos.clear();
        for id in live {
            let node = &mut self.nodes[id.index()];
            node.atom.apply_in_place(merge);
            let atom = node.atom;
            let level = node.level;
            match self.canon.entry(atom) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(id);
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    let winner = *o.get();
                    // Keep the conjunct that was generated earlier / at the
                    // lower level; redirect the other onto it.
                    let (keep, drop) = if self.nodes[winner.index()].level <= level {
                        (winner, id)
                    } else {
                        (id, winner)
                    };
                    if keep != winner {
                        o.insert(keep);
                    }
                    self.redirect[drop.index()] = keep.0;
                }
            }
        }
        // Rebuild the positional indexes from the canonical survivors, in
        // numeric id order — NOT by iterating the `canon` map, whose order
        // is randomized per `HashMap` instance. Index list order drives
        // match enumeration order, so it must be a pure function of the
        // chase history for runs to be reproducible (and for the parallel
        // and sequential engines to agree bit for bit).
        for i in 0..self.nodes.len() as u32 {
            let id = ConjunctId(i);
            if !self.is_live(id) {
                continue;
            }
            self.index(id, self.nodes[id.index()].atom);
        }
    }

    // ---- TGD matching -----------------------------------------------------

    /// Enumerates homomorphisms from `body` into the live conjuncts with
    /// `body[pinned]` mapped to conjunct `pinned_id`. Calls `found` with the
    /// binding and the matched conjunct per body position.
    fn match_body_pinned(
        &self,
        body: &[Atom],
        pinned: usize,
        pinned_id: ConjunctId,
        found: &mut dyn FnMut(&Subst, &[ConjunctId]),
    ) {
        // The binding is keyed strictly by *rule* variables and consulted
        // with `get`, never by rewriting the pattern: the image of a rule
        // variable is often a query variable (chase conjuncts contain
        // them as values), and a rewritten pattern could not tell such an
        // image apart from an unbound rule variable — it would be
        // spuriously re-bound instead of compared, over-applying rules.
        fn unify(pattern: &Atom, target: &Atom, s: &Subst) -> Option<Subst> {
            if pattern.pred() != target.pred() {
                return None;
            }
            let mut out = s.clone();
            for (&p, &t) in pattern.args().iter().zip(target.args()) {
                if p.is_var() {
                    match out.get(p) {
                        Some(image) => {
                            if image != t {
                                return None;
                            }
                        }
                        None => out.bind(p, t),
                    }
                } else if p != t {
                    return None;
                }
            }
            Some(out)
        }

        #[allow(clippy::too_many_arguments)] // recursive helper: state threads through
        fn rec(
            chase: &Chase,
            body: &[Atom],
            pinned: usize,
            pinned_id: ConjunctId,
            idx: usize,
            s: Subst,
            matched: &mut Vec<ConjunctId>,
            found: &mut dyn FnMut(&Subst, &[ConjunctId]),
        ) {
            if idx == body.len() {
                found(&s, matched);
                return;
            }
            if idx == pinned {
                let target = &chase.nodes[pinned_id.index()].atom;
                if let Some(s2) = unify(&body[idx], target, &s) {
                    matched.push(pinned_id);
                    rec(chase, body, pinned, pinned_id, idx + 1, s2, matched, found);
                    matched.pop();
                }
                return;
            }
            for &cid in chase.candidates(&body[idx], &s) {
                let target = &chase.nodes[cid.index()].atom;
                if let Some(s2) = unify(&body[idx], target, &s) {
                    matched.push(cid);
                    rec(chase, body, pinned, pinned_id, idx + 1, s2, matched, found);
                    matched.pop();
                }
            }
        }

        let mut matched = Vec::with_capacity(body.len());
        rec(
            self,
            body,
            pinned,
            pinned_id,
            0,
            Subst::new(),
            &mut matched,
            found,
        );
    }

    /// Conjuncts that already witness an existential head: same
    /// predicate, equal at every non-existential position, with all
    /// occurrences of the existential variable mapped to one common value
    /// (Definition 2(2)(ii): the rule is applicable only if *no*
    /// extension of the binding maps the head into the chase). Probes the
    /// positional index at the first non-existential head position,
    /// falling back to the per-predicate list for the degenerate
    /// all-existential head. For ρ5 (`data(O, A, ∃V)`) this probes
    /// `(data, 0, O)` — exactly the scan the specialized `Σ_FL` engine
    /// performed, in the same index order.
    fn existential_witnesses(&self, head: &Atom, ex: Term) -> Vec<ConjunctId> {
        let probe = head
            .args()
            .iter()
            .enumerate()
            .find(|&(_, &t)| t != ex)
            .map(|(pos, &t)| (pos as u8, t));
        let ids: &[ConjunctId] = match probe {
            Some((pos, t)) => self.posting(head.pred(), pos, t),
            None => &self.by_pred[head.pred().index()],
        };
        ids.iter()
            .copied()
            .filter(|&id| {
                let witness = &self.nodes[id.index()].atom;
                let mut ex_image: Option<Term> = None;
                head.args().iter().zip(witness.args()).all(|(&h, &w)| {
                    if h == ex {
                        match ex_image {
                            Some(img) => img == w,
                            None => {
                                ex_image = Some(w);
                                true
                            }
                        }
                    } else {
                        h == w
                    }
                })
            })
            .collect()
    }

    // ---- main loop ----------------------------------------------------------

    /// Collects every applicable rule instance with `id` pinned in each
    /// compatible body position. Pure read of the current chase state.
    fn collect_candidates(&self, tgds: &[&Tgd], id: ConjunctId, out: &mut Vec<Candidate>) {
        let pred = self.nodes[id.index()].atom.pred();
        for tgd in tgds {
            for (pos, batom) in tgd.body.iter().enumerate() {
                if batom.pred() != pred {
                    continue;
                }
                self.match_body_pinned(&tgd.body, pos, id, &mut |s, matched| {
                    out.push(Candidate {
                        rule: tgd.id,
                        head: tgd.head.apply(s),
                        existential: tgd.existential.map(|e| s.apply(e)),
                        parents: matched.to_vec(),
                    });
                });
            }
        }
    }

    /// Discovers the applicable rule instances for a whole frontier batch,
    /// fanning the per-conjunct searches out over `threads` scoped workers.
    ///
    /// Discovery is a *pure read* of the chase (the state is frozen for
    /// the duration of the batch), so the workers need no synchronisation.
    /// Each worker takes a contiguous chunk of the frontier and the chunk
    /// results are concatenated in frontier order, so the returned
    /// candidate sequence is a pure function of the chase state — the
    /// thread count affects wall-clock time only, never the result.
    /// A worker panic is caught at the join and surfaced as
    /// [`ChaseError::WorkerFailed`] instead of unwinding through the
    /// scope: one poisoned query pair must not abort the process (or a
    /// whole `contains_batch`). Every handle is joined before returning,
    /// so no worker outlives the call even on failure.
    fn discover(
        &self,
        tgds: &[&Tgd],
        frontier: &[ConjunctId],
        threads: usize,
    ) -> Result<Vec<Candidate>, ChaseError> {
        let threads = threads.min(frontier.len());
        if threads <= 1 {
            let mut out = Vec::new();
            for &id in frontier {
                self.collect_candidates(tgds, id, &mut out);
            }
            return Ok(out);
        }
        let chunk_size = frontier.len().div_ceil(threads);
        // Read on this thread: the hook is per test thread, so it never
        // reaches chases that other tests run concurrently.
        #[cfg(test)]
        let inject_panic = INJECT_WORKER_PANIC.get();
        let mut per_chunk: Vec<Vec<Candidate>> = Vec::with_capacity(threads);
        let mut failure: Option<ChaseError> = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = frontier
                .chunks(chunk_size)
                .map(|chunk| {
                    scope.spawn(move || {
                        #[cfg(test)]
                        if inject_panic {
                            panic!("injected discovery worker panic");
                        }
                        let mut out = Vec::new();
                        for &id in chunk {
                            self.collect_candidates(tgds, id, &mut out);
                        }
                        out
                    })
                })
                .collect();
            // Joining in spawn order is the deterministic merge step. Keep
            // joining after a failure so the scope exits with every worker
            // accounted for (an unjoined panicked handle would re-panic).
            for h in handles {
                match h.join() {
                    Ok(chunk) => per_chunk.push(chunk),
                    Err(payload) => {
                        failure.get_or_insert(ChaseError::WorkerFailed {
                            detail: panic_detail(payload.as_ref()),
                        });
                    }
                }
            }
        });
        match failure {
            Some(err) => Err(err),
            None => Ok(per_chunk.into_iter().flatten().collect()),
        }
    }

    /// Runs the chase with the given rules until fixpoint (up to the level
    /// bound). `tgds` is a subset of the active rule set's TGDs; the
    /// active EGDs (ρ4, or the custom set's) are always drained eagerly.
    ///
    /// The loop is *frontier-batched* (semi-naive): each round discovers
    /// the rule instances pinned on the conjuncts of the current frontier
    /// against a frozen snapshot — in parallel when
    /// [`ChaseOptions::threads`] asks for it — and then applies them
    /// sequentially in frontier order. Conjuncts created by a round form
    /// the next frontier. Every new match involves at least one conjunct
    /// that did not exist when the previous snapshot was taken, and that
    /// conjunct is pinned in a later round, so no application is ever
    /// missed; a ρ4 merge resets the frontier to every live conjunct, as
    /// merges can enable matches among old conjuncts.
    /// Returns `Err` only for a true engine failure (a panicked discovery
    /// worker); budget exhaustion is *not* an error — it ends the run
    /// early with [`ChaseOutcome::Exhausted`] and the partial chase
    /// intact. The governor is observed at frontier-round boundaries plus
    /// every [`CHECK_EVERY`] candidates inside a round; the step cap is
    /// checked per candidate because it is the deterministic limit.
    fn run(&mut self, tgds: &[&Tgd], opts: &ChaseOptions) -> Result<(), ChaseError> {
        let threads = if opts.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            opts.threads
        };
        // Keep the conjunct cap below the `u32` id space so `insert` can
        // never run out of ids before the cap fires.
        let max_conjuncts = opts.max_conjuncts.min(u32::MAX as usize - 1);
        let governed = !opts.budget.is_unlimited();
        let mut frontier: Vec<ConjunctId> = self.live_ids();

        // Initial EGD drain (the query body itself may violate an EGD).
        match self.drain_egds() {
            Err((l, r)) => {
                self.outcome = ChaseOutcome::Failed { left: l, right: r };
                return Ok(());
            }
            Ok(true) => {
                frontier = self.live_ids();
            }
            Ok(false) => {}
        }

        while !frontier.is_empty() {
            if governed {
                if let Some(reason) = self.governor_checkpoint(&opts.budget) {
                    self.exhaust(reason);
                    return Ok(());
                }
            }
            let candidates = self.discover(tgds, &frontier, threads)?;

            let mut next: Vec<ConjunctId> = Vec::new();
            let mut added_any = false;
            for cand in candidates {
                self.stats.steps += 1;
                if let Some(max_steps) = opts.budget.max_steps {
                    if self.stats.steps > max_steps {
                        self.exhaust(ExhaustReason::Steps);
                        return Ok(());
                    }
                }
                if governed && self.stats.steps % CHECK_EVERY == 0 {
                    if let Some(reason) = self.governor_checkpoint(&opts.budget) {
                        self.exhaust(reason);
                        return Ok(());
                    }
                }
                // Re-validate against conjuncts added earlier in this
                // round (the snapshot the candidate was discovered on is
                // one round old by now).
                let head = cand.head.apply(&self.merge_map);
                let parents: Vec<ConjunctId> =
                    cand.parents.iter().map(|&p| self.resolve(p)).collect();
                if parents.iter().any(|&p| !self.is_live(p)) {
                    continue;
                }
                let parent_level = parents
                    .iter()
                    .map(|&p| self.nodes[p.index()].level)
                    .max()
                    .unwrap_or(0);
                let new_level = parent_level + 1;

                match cand.existential {
                    None => {
                        if let Some(&existing) = self.canon.get(&head) {
                            // Conclusion already present: cross-arcs
                            // (Definition 3(4)(i)).
                            if self.record_cross {
                                for &p in &parents {
                                    self.add_arc(p, existing, cand.rule, true);
                                }
                            }
                            continue;
                        }
                        if new_level > opts.level_bound {
                            self.hit_bound = true;
                            continue;
                        }
                        if self.nodes.len() >= max_conjuncts {
                            self.exhaust(ExhaustReason::Conjuncts);
                            return Ok(());
                        }
                        let Some((nid, new)) =
                            self.insert(head, new_level, Some(cand.rule), parents.clone())
                        else {
                            self.exhaust(ExhaustReason::Conjuncts);
                            return Ok(());
                        };
                        debug_assert!(new);
                        self.stats.record_application(cand.rule);
                        for &p in &parents {
                            self.add_arc(p, nid, cand.rule, false);
                        }
                        next.push(nid);
                        added_any = true;
                    }
                    Some(ex) => {
                        // Existential TGD: applicable only if no extension of
                        // the binding maps the head into the chase
                        // (Definition 2(2)(ii)).
                        let witnesses = self.existential_witnesses(&head, ex);
                        if !witnesses.is_empty() {
                            if self.record_cross {
                                for w in witnesses {
                                    for &p in &parents {
                                        self.add_arc(p, w, cand.rule, true);
                                    }
                                }
                            }
                            continue;
                        }
                        if new_level > opts.level_bound {
                            self.hit_bound = true;
                            continue;
                        }
                        if self.nodes.len() >= max_conjuncts {
                            self.exhaust(ExhaustReason::Conjuncts);
                            return Ok(());
                        }
                        let fresh = Term::Null(self.nulls.fresh());
                        self.stats.nulls_invented += 1;
                        let mut s = Subst::new();
                        s.bind(ex, fresh);
                        let head = head.apply(&s);
                        let Some((nid, new)) =
                            self.insert(head, new_level, Some(cand.rule), parents.clone())
                        else {
                            self.exhaust(ExhaustReason::Conjuncts);
                            return Ok(());
                        };
                        debug_assert!(new);
                        self.stats.record_application(cand.rule);
                        for &p in &parents {
                            self.add_arc(p, nid, cand.rule, false);
                        }
                        next.push(nid);
                        added_any = true;
                    }
                }
            }

            if added_any {
                // Definition 2: EGDs are drained after TGD applications.
                match self.drain_egds() {
                    Err((l, r)) => {
                        self.outcome = ChaseOutcome::Failed { left: l, right: r };
                        return Ok(());
                    }
                    Ok(true) => {
                        // Merges may enable matches among old conjuncts:
                        // reprocess everything still live.
                        next = self.live_ids();
                    }
                    Ok(false) => {}
                }
            }
            frontier = next;
        }

        self.outcome = if self.hit_bound {
            ChaseOutcome::LevelBounded
        } else {
            ChaseOutcome::Completed
        };
        Ok(())
    }

    fn live_ids(&self) -> Vec<ConjunctId> {
        (0..self.nodes.len() as u32)
            .map(ConjunctId)
            .filter(|&i| self.is_live(i))
            .collect()
    }

    /// Resets every live conjunct to level 0 (the Section 4 convention for
    /// `chase⁻`: "we will view all tuples in `chase_{Σ−}` as being at level
    /// 0").
    fn reset_levels(&mut self) {
        for n in &mut self.nodes {
            n.level = 0;
        }
    }
}

/// Walks a union-find parent chain; returns the root and the number of
/// hops (the depth [`ChaseStats::union_find_depth`] reports).
fn find_depth(uf: &HashMap<Term, Term>, mut t: Term) -> (Term, u32) {
    let mut hops = 0u32;
    while let Some(&p) = uf.get(&t) {
        if p == t {
            break;
        }
        t = p;
        hops += 1;
    }
    (t, hops)
}

/// The root of `t` in a union-find of demanded equations.
fn find(uf: &HashMap<Term, Term>, t: Term) -> Term {
    find_depth(uf, t).0
}

#[cfg(test)]
thread_local! {
    /// Test-only switch that makes every discovery worker spawned by a
    /// chase on this thread panic, so the join-error path is exercisable
    /// without a genuinely buggy rule.
    static INJECT_WORKER_PANIC: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Renders a worker's panic payload for [`ChaseError::WorkerFailed`].
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn sigma_tgds(include_rho5: bool) -> Vec<&'static Tgd> {
    sigma_fl()
        .iter()
        .filter_map(|r| match r {
            SigmaRule::Tgd(t) if include_rho5 || t.id != RuleId::R5 => Some(t),
            _ => None,
        })
        .collect()
}

/// Computes `chase⁻(q) = chase_{Σ_FL − ρ5}(q)`: the preliminary chase of
/// Section 4. It always terminates ("no new constant is generated"); all
/// of its conjuncts are assigned level 0.
///
/// ```
/// use flogic_syntax::parse_query;
/// use flogic_model::Atom;
/// use flogic_term::Term;
/// let q = parse_query("q(X) :- member(X, c1), sub(c1, c2).").unwrap();
/// let chase = flogic_chase::chase_minus(&q);
/// // rho3 derived member(X, c2).
/// let derived = Atom::member(Term::var("X"), Term::constant("c2"));
/// assert!(chase.find(&derived).is_some());
/// ```
pub fn chase_minus(q: &ConjunctiveQuery) -> Chase {
    match chase_minus_with(q, &ChaseOptions::default()) {
        Ok(chase) => chase,
        // Default options run sequentially (threads = 1): no discovery
        // worker is ever spawned, so WorkerFailed cannot occur.
        Err(e) => unreachable!("sequential chase⁻ cannot fail: {e}"),
    }
}

/// [`chase_minus`] with explicit options. The level bound is ignored —
/// `chase⁻` terminates on its own and all of its conjuncts are at level 0
/// by convention — but the conjunct cap, thread count, and budget are
/// honoured.
///
/// `Err` means a discovery worker panicked ([`ChaseError::WorkerFailed`]);
/// budget exhaustion is reported through [`ChaseOutcome::Exhausted`] on
/// the returned (partial) chase instead.
pub fn chase_minus_with(q: &ConjunctiveQuery, opts: &ChaseOptions) -> Result<Chase, ChaseError> {
    let mut chase = Chase::new(q, &opts.sigma);
    if chase.is_exhausted() {
        return Ok(chase);
    }
    let run_opts = ChaseOptions {
        level_bound: u32::MAX,
        ..opts.clone()
    };
    // Structurally-Σ_FL sets take the specialized built-in path, so a
    // parsed copy of the shipped rules is bit-identical to the default.
    let tgds: Vec<&Tgd> = if opts.sigma.is_sigma_fl() {
        sigma_tgds(false)
    } else {
        opts.sigma.datalog_tgds()
    };
    chase.run(&tgds, &run_opts)?;
    chase.reset_levels();
    Ok(chase)
}

/// Computes the level-bounded chase of `q` w.r.t. all of `Σ_FL`: first
/// `chase⁻` (level 0), then the bounded phase in which ρ5 may invent
/// fresh values and levels grow up to `level_bound` (Definition 3).
///
/// With `level_bound = 2·|q1|·|q2|` this is exactly the prefix that
/// Theorem 12 proves sufficient for containment checking.
///
/// Both phases observe the same [`ChaseOptions::budget`] (step counts and
/// the conjunct cap accumulate across them). `Err` means a discovery
/// worker panicked; exhaustion ends the run early with
/// [`ChaseOutcome::Exhausted`] and the partial chase intact.
pub fn chase_bounded(q: &ConjunctiveQuery, opts: &ChaseOptions) -> Result<Chase, ChaseError> {
    let mut chase = Chase::new(q, &opts.sigma);
    if chase.is_exhausted() {
        return Ok(chase);
    }
    let prelim = ChaseOptions {
        level_bound: u32::MAX,
        ..opts.clone()
    };
    let builtin = opts.sigma.is_sigma_fl();
    let prelim_tgds: Vec<&Tgd> = if builtin {
        sigma_tgds(false)
    } else {
        opts.sigma.datalog_tgds()
    };
    chase.run(&prelim_tgds, &prelim)?;
    if chase.is_failed() || chase.is_exhausted() {
        return Ok(chase);
    }
    chase.reset_levels();
    chase.hit_bound = false;
    chase.record_cross = true;
    let all_tgds: Vec<&Tgd> = if builtin {
        sigma_tgds(true)
    } else {
        opts.sigma.tgds()
    };
    chase.run(&all_tgds, opts)?;
    Ok(chase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flogic_syntax::parse_query;

    fn c(n: &str) -> Term {
        Term::constant(n)
    }
    fn v(n: &str) -> Term {
        Term::var(n)
    }

    #[test]
    fn chase_minus_saturates_subclass_hierarchy() {
        let q = parse_query("q(X) :- member(X, c1), sub(c1, c2), sub(c2, c3).").unwrap();
        let chase = chase_minus(&q);
        assert_eq!(chase.outcome(), ChaseOutcome::Completed);
        // ρ2 adds sub(c1,c3); ρ3 adds member(X,c2), member(X,c3).
        assert!(chase.find(&Atom::sub(c("c1"), c("c3"))).is_some());
        assert!(chase.find(&Atom::member(v("X"), c("c2"))).is_some());
        assert!(chase.find(&Atom::member(v("X"), c("c3"))).is_some());
        assert_eq!(chase.len(), 6);
        // All conjuncts at level 0 by the Section 4 convention.
        assert_eq!(chase.max_level(), 0);
    }

    #[test]
    fn example_1_head_rewriting() {
        // Example 1 of the paper: funct is inherited to the member (ρ12)
        // and then ρ4 merges V2 into V1, changing the head.
        let q =
            parse_query("q(V1, V2) :- data(O, A, V1), data(O, A, V2), funct(A, C), member(O, C).")
                .unwrap();
        let chase = chase_minus(&q);
        assert_eq!(chase.outcome(), ChaseOutcome::Completed);
        assert!(
            chase.find(&Atom::funct(v("A"), v("O"))).is_some(),
            "rho12 fired"
        );
        assert_eq!(chase.head(), &[v("V1"), v("V1")], "head rewritten by rho4");
        // The two data conjuncts fused into one.
        let data_count = chase
            .conjuncts()
            .filter(|(_, a, _)| a.pred() == Pred::Data)
            .count();
        assert_eq!(data_count, 1);
    }

    #[test]
    fn egd_failure_on_distinct_constants() {
        let q = parse_query("q() :- data(o, a, 1), data(o, a, 2), funct(a, o).").unwrap();
        let chase = chase_minus(&q);
        assert!(chase.is_failed());
        let ChaseOutcome::Failed { left, right } = chase.outcome() else {
            panic!()
        };
        assert_eq!((left, right), (c("1"), c("2")));
    }

    #[test]
    fn egd_merges_var_into_constant() {
        let q = parse_query("q(V) :- data(o, a, V), data(o, a, 5), funct(a, o).").unwrap();
        let chase = chase_minus(&q);
        assert!(!chase.is_failed());
        assert_eq!(chase.head(), &[c("5")]);
    }

    #[test]
    fn example_2_bounded_chase_unrolls_the_cycle() {
        // Example 2: q() :- mandatory(A,T), type(T,A,T), sub(T,U).
        let q = parse_query("q() :- mandatory(A, T), type(T, A, T), sub(T, U).").unwrap();
        let chase = chase_bounded(
            &q,
            &ChaseOptions {
                level_bound: 8,
                max_conjuncts: 100_000,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(chase.outcome(), ChaseOutcome::LevelBounded);
        // The ρ5-ρ1-ρ6-ρ10 pump: data(T,A,_v1), member(_v1,T), type(_v1,A,T),
        // mandatory(A,_v1), then data(_v1,A,_v2), ...
        let data_atoms: Vec<&Atom> = chase
            .conjuncts()
            .filter(|(_, a, _)| a.pred() == Pred::Data)
            .map(|(_, a, _)| a)
            .collect();
        assert!(
            data_atoms.len() >= 2,
            "cycle unrolled at least twice: {data_atoms:?}"
        );
        assert!(chase.stats().nulls_invented >= 2);
        // Branching via ρ3: member(_v1, U).
        let member_u = chase
            .conjuncts()
            .any(|(_, a, _)| a.pred() == Pred::Member && a.arg(1) == v("U") && a.arg(0).is_null());
        assert!(member_u, "rho3 branch member(_vi, U) exists");
        assert!(chase.max_level() <= 8);
    }

    #[test]
    fn level_growth_counts_every_application_at_its_level() {
        let q = parse_query("q() :- mandatory(A, T), type(T, A, T), sub(T, U).").unwrap();
        let opts = ChaseOptions {
            level_bound: 12,
            ..Default::default()
        };
        let chase = chase_bounded(&q, &opts).unwrap();
        let growth = chase.level_growth();
        // The ρ8 conjunct of chase⁻ sits at level 0, as `chase.level` says.
        assert_eq!(
            growth[0],
            LevelGrowth {
                created: 1,
                invented: 0
            }
        );
        assert_eq!(
            growth[1],
            LevelGrowth {
                created: 1,
                invented: 1
            }
        );
        assert_eq!(growth.len() as u32 - 1, chase.max_level());
        let created: usize = growth.iter().map(|g| g.created).sum();
        let invented: usize = growth.iter().map(|g| g.invented).sum();
        assert_eq!(created, chase.stats().total_applications());
        assert_eq!(invented as u64, chase.stats().nulls_invented);
    }

    #[test]
    fn merge_rounds_and_union_find_depth_are_counted() {
        let q =
            parse_query("q(V1, V2) :- data(O, A, V1), data(O, A, V2), funct(A, C), member(O, C).")
                .unwrap();
        let chase = chase_minus(&q);
        assert_eq!(chase.stats().merge_rounds, 1);
        assert_eq!(chase.stats().merges, 1);
        assert_eq!(chase.stats().union_find_depth, 1);
        // Merged-away nodes still count: ρ12 made one conjunct.
        let created: usize = chase.level_growth().iter().map(|g| g.created).sum();
        assert_eq!(created, chase.stats().total_applications());
        let plain = chase_minus(&parse_query("q(X) :- sub(X, Y).").unwrap());
        assert_eq!(plain.stats().merge_rounds, 0);
        assert!(plain.level_growth().is_empty());
    }

    #[test]
    fn bounded_chase_of_acyclic_query_completes() {
        let q = parse_query("q(A) :- mandatory(A, t), type(t, A, u).").unwrap();
        let chase = chase_bounded(
            &q,
            &ChaseOptions {
                level_bound: 50,
                max_conjuncts: 100_000,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(chase.outcome(), ChaseOutcome::Completed);
        // ρ5 invents one value; ρ1 types it; ρ6/ρ10 do not cycle since u
        // has no mandatory attribute.
        assert_eq!(chase.stats().nulls_invented, 1);
        let data: Vec<&Atom> = chase
            .conjuncts()
            .filter(|(_, a, _)| a.pred() == Pred::Data)
            .map(|(_, a, _)| a)
            .collect();
        assert_eq!(data.len(), 1);
        assert!(data[0].arg(2).is_null());
        // member(_v1, u) from ρ1.
        assert!(chase
            .conjuncts()
            .any(|(_, a, _)| a.pred() == Pred::Member && a.arg(1) == c("u")));
    }

    #[test]
    fn rho5_not_applicable_when_value_exists() {
        let q = parse_query("q() :- mandatory(a, t), data(t, a, w).").unwrap();
        let chase = chase_bounded(
            &q,
            &ChaseOptions {
                level_bound: 50,
                max_conjuncts: 100_000,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(chase.outcome(), ChaseOutcome::Completed);
        assert_eq!(chase.stats().nulls_invented, 0);
    }

    #[test]
    fn levels_grow_along_the_pump() {
        let q = parse_query("q() :- mandatory(A, T), type(T, A, T).").unwrap();
        let chase = chase_bounded(
            &q,
            &ChaseOptions {
                level_bound: 9,
                max_conjuncts: 100_000,
                ..Default::default()
            },
        )
        .unwrap();
        // data at level 1, member at 2, type at 3, mandatory at 3 (type,
        // member parents), next data at 4 ... strictly increasing chain.
        let mut levels: Vec<u32> = chase
            .conjuncts()
            .filter(|(_, a, _)| a.pred() == Pred::Data)
            .map(|(_, _, l)| l)
            .collect();
        levels.sort_unstable();
        assert!(levels.windows(2).all(|w| w[0] < w[1]), "{levels:?}");
        assert_eq!(levels[0], 1);
    }

    #[test]
    fn cross_arcs_recorded_in_bounded_phase() {
        // type(T,A,T) + sub(T,U) gives type(T,A,U) at level 0 already; in
        // the bounded phase the same derivations re-fire as cross-arcs.
        let q = parse_query("q() :- mandatory(A, T), type(T, A, T), sub(T, U).").unwrap();
        let chase = chase_bounded(
            &q,
            &ChaseOptions {
                level_bound: 6,
                max_conjuncts: 100_000,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(chase.arcs().any(|a| a.cross), "at least one cross-arc");
    }

    #[test]
    fn ids_survive_merges() {
        let q = parse_query("q(V) :- data(o, a, V), data(o, a, 5), funct(a, o).").unwrap();
        let chase = chase_minus(&q);
        // Whatever id we look up, atoms resolve.
        for (id, atom, _) in chase.conjuncts() {
            assert_eq!(chase.atom(id), atom);
        }
        assert_eq!(chase.merge_map().apply(v("V")), c("5"));
    }

    #[test]
    fn truncation_cap_applies() {
        let q = parse_query("q() :- mandatory(A, T), type(T, A, T).").unwrap();
        let chase = chase_bounded(
            &q,
            &ChaseOptions {
                level_bound: u32::MAX,
                max_conjuncts: 40,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            chase.outcome(),
            ChaseOutcome::Exhausted {
                reason: ExhaustReason::Conjuncts
            }
        );
        assert!(chase.len() <= 41);
    }

    #[test]
    fn worker_panic_is_caught_as_worker_failed() {
        // The injection flag makes every spawned discovery worker panic;
        // the sequential path spawns none, so only threaded runs fail.
        let q = parse_query("q(X) :- member(X, c1), sub(c1, c2), sub(c2, c3).").unwrap();
        INJECT_WORKER_PANIC.set(true);
        let threaded = chase_minus_with(
            &q,
            &ChaseOptions {
                threads: 2,
                ..Default::default()
            },
        );
        let sequential = chase_minus_with(&q, &ChaseOptions::default());
        INJECT_WORKER_PANIC.set(false);
        match threaded {
            Err(ChaseError::WorkerFailed { detail }) => {
                assert!(detail.contains("injected"), "{detail}");
            }
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
        // The process survived, and the sequential engine is unaffected.
        assert_eq!(sequential.unwrap().outcome(), ChaseOutcome::Completed);
    }

    #[test]
    fn pre_cancelled_token_stops_before_round_one() {
        let q = parse_query("q() :- mandatory(A, T), type(T, A, T).").unwrap();
        let budget = Budget::default();
        budget.cancel.cancel();
        let chase = chase_bounded(
            &q,
            &ChaseOptions {
                budget,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            chase.outcome(),
            ChaseOutcome::Exhausted {
                reason: ExhaustReason::Cancelled
            }
        );
        // Only the query body was materialized: the token was observed at
        // the first checkpoint, before any frontier round ran.
        assert_eq!(chase.len(), q.size());
    }

    #[test]
    fn elapsed_deadline_exhausts_immediately() {
        let q = parse_query("q() :- mandatory(A, T), type(T, A, T).").unwrap();
        let budget = Budget::with_timeout(std::time::Duration::ZERO);
        let chase = chase_bounded(
            &q,
            &ChaseOptions {
                budget,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            chase.outcome(),
            ChaseOutcome::Exhausted {
                reason: ExhaustReason::Deadline
            }
        );
        assert!(chase.len() >= q.size(), "partial chase retained");
    }

    #[test]
    fn step_budget_is_deterministic_across_thread_counts() {
        let q = parse_query("q() :- mandatory(A, T), type(T, A, T), sub(T, U).").unwrap();
        let run = |threads: usize| {
            chase_bounded(
                &q,
                &ChaseOptions {
                    threads,
                    budget: Budget::unlimited().steps(200),
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let a = run(1);
        assert_eq!(
            a.outcome(),
            ChaseOutcome::Exhausted {
                reason: ExhaustReason::Steps
            }
        );
        for threads in [2, 4] {
            let b = run(threads);
            assert_eq!(a.outcome(), b.outcome());
            assert_eq!(a.len(), b.len(), "threads={threads}");
            assert_eq!(a.stats(), b.stats(), "threads={threads}");
            assert_eq!(a.max_level(), b.max_level(), "threads={threads}");
        }
    }

    #[test]
    fn byte_budget_exhausts_pump() {
        let q = parse_query("q() :- mandatory(A, T), type(T, A, T).").unwrap();
        let chase = chase_bounded(
            &q,
            &ChaseOptions {
                budget: Budget::unlimited().bytes(16 * 1024),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            chase.outcome(),
            ChaseOutcome::Exhausted {
                reason: ExhaustReason::Bytes
            }
        );
        // The estimate is checked at round boundaries, so the overshoot is
        // at most one round of the pump.
        assert!(chase.approx_bytes() < 10 * 16 * 1024);
    }

    #[test]
    fn parents_and_rules_recorded() {
        let q = parse_query("q(X) :- member(X, c1), sub(c1, c2).").unwrap();
        let chase = chase_minus(&q);
        let derived = chase.find(&Atom::member(v("X"), c("c2"))).unwrap();
        assert_eq!(chase.rule_of(derived), Some(RuleId::R3));
        let parents = chase.parents_of(derived);
        assert_eq!(parents.len(), 2);
        let parent_atoms: Vec<&Atom> = parents.iter().map(|&p| chase.atom(p)).collect();
        assert!(parent_atoms.contains(&&Atom::member(v("X"), c("c1"))));
        assert!(parent_atoms.contains(&&Atom::sub(c("c1"), c("c2"))));
    }
}
