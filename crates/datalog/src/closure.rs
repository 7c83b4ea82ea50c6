//! Closing a finite database under `Σ_FL`.

use flogic_model::{sigma_fl, Atom, Database, Pred, SigmaRule};
use flogic_term::{NullGen, Term};

use crate::engine::seminaive_from;
use crate::store::{FactStore, RAtom, Rule};
use crate::{DatalogError, Program, UnionFind};

/// Budget for the closure; mandatory-attribute cycles make the closure
/// infinite (Section 4 of the paper analyses the same phenomenon on the
/// query side), so a budget is required for termination.
#[derive(Clone, Copy, Debug)]
pub struct ClosureOptions {
    /// Maximum total number of facts before giving up.
    pub max_facts: usize,
    /// Maximum number of labelled nulls to invent before giving up.
    pub max_nulls: u64,
}

impl Default for ClosureOptions {
    fn default() -> Self {
        ClosureOptions {
            max_facts: 20_000,
            max_nulls: 2_000,
        }
    }
}

/// What the closure did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClosureStats {
    /// Outer rounds (datalog saturation + EGD + ρ5).
    pub rounds: usize,
    /// Term merges performed by ρ4.
    pub merges: usize,
    /// Labelled nulls invented by ρ5.
    pub nulls_invented: u64,
    /// Facts in the closed database.
    pub facts: usize,
}

/// The ten plain-Datalog rules of `Σ_FL` (everything except ρ4 and ρ5),
/// translated into the generic engine's rule type.
pub fn sigma_datalog_program() -> Program {
    let rules = sigma_fl()
        .iter()
        .filter(|r| r.is_datalog())
        .map(|r| {
            let SigmaRule::Tgd(t) = r else {
                unreachable!("is_datalog implies TGD")
            };
            Rule::new(to_ratom(&t.head), t.body.iter().map(to_ratom).collect())
        })
        .collect();
    Program::new(rules).expect("Sigma_FL datalog rules are range-restricted")
}

fn to_ratom(a: &Atom) -> RAtom {
    RAtom::new(a.pred().name(), a.args().to_vec())
}

fn to_store(db: &Database) -> FactStore {
    let mut store = FactStore::new();
    for a in db.iter() {
        store
            .insert(to_ratom(a))
            .expect("database atoms are ground");
    }
    store
}

fn from_store(store: &FactStore) -> Result<Database, DatalogError> {
    let mut db = Database::new();
    for f in store.iter() {
        let pred = Pred::from_name(f.rel.as_str()).expect("closure only produces P_FL relations");
        let atom = Atom::new(pred, &f.args).expect("arity preserved");
        db.insert(atom).map_err(|e| DatalogError::NonGroundFact {
            fact: e.to_string(),
        })?;
    }
    Ok(db)
}

/// Closes `db` under all twelve rules of `Σ_FL`:
///
/// 1. saturate under the ten Datalog rules (semi-naive evaluation from
///    the facts the previous round added, checking the fact budget as it
///    grows);
/// 2. resolve all ρ4 obligations at once through a union–find (two distinct
///    rigid constants in one class ⇒ [`DatalogError::Inconsistent`]) and
///    rewrite the database through the resulting merge map;
/// 3. apply ρ5 in restricted-chase style: `mandatory(a, o)` with no
///    `data(o, a, _)` fact invents one labelled null;
/// 4. repeat until fixpoint or until the budget is exhausted.
///
/// On success the returned database satisfies `Σ_FL`
/// ([`Database::satisfies_sigma`]).
///
/// ```
/// use flogic_syntax::parse_database;
/// use flogic_datalog::{close_database, ClosureOptions};
/// let db = parse_database("john:student. student::person.").unwrap();
/// let (closed, _) = close_database(&db, &ClosureOptions::default()).unwrap();
/// assert!(closed.satisfies_sigma());
/// assert_eq!(closed.len(), 3); // + member(john, person) by rho3
/// ```
pub fn close_database(
    db: &Database,
    opts: &ClosureOptions,
) -> Result<(Database, ClosureStats), DatalogError> {
    let mut store = to_store(db);
    let mut stats = ClosureStats::default();
    // Continue null ids above any null already present in the input.
    let max_null = db
        .iter()
        .flat_map(|a| a.args().iter())
        .filter_map(|t| match t {
            Term::Null(n) => Some(n.0),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut nulls = NullGen::new();
    for _ in 0..max_null {
        nulls.fresh();
    }

    let program = sigma_datalog_program();
    let data_rel = flogic_term::Symbol::intern(Pred::Data.name());
    let mandatory_rel = flogic_term::Symbol::intern(Pred::Mandatory.name());
    let funct_rel = flogic_term::Symbol::intern(Pred::Funct.name());

    // Facts the next saturation must start from: the input at first, then
    // what ρ5 added, or the whole store after a ρ4 rewrite.
    let mut delta: Vec<RAtom> = store.iter().collect();
    loop {
        stats.rounds += 1;
        seminaive_from(&program, &mut store, delta, opts.max_facts)?;
        if store.len() > opts.max_facts {
            return Err(DatalogError::BudgetExceeded {
                facts: store.len(),
                nulls: stats.nulls_invented,
            });
        }

        // ρ4: for every funct(a, o), all values of data(o, a, ·) must agree.
        let mut uf = UnionFind::new();
        for fu in store.tuples(funct_rel).to_vec() {
            let (a, o) = (fu[0], fu[1]);
            let mut first: Option<Term> = None;
            for d in store.tuples_with(data_rel, 0, o) {
                if d[1] == a {
                    match first {
                        None => first = Some(d[2]),
                        Some(f) => uf.union(f, d[2])?,
                    }
                }
            }
        }
        if !uf.is_trivial() {
            let merge = uf.to_subst();
            stats.merges += merge.len();
            let mut rewritten = FactStore::new();
            for f in store.iter() {
                rewritten.insert(f.apply(&merge))?;
            }
            store = rewritten;
            delta = store.iter().collect();
            continue;
        }

        // ρ5 (restricted): invent a value only when none exists.
        let mut to_add: Vec<RAtom> = Vec::new();
        for m in store.tuples(mandatory_rel) {
            let (a, o) = (m[0], m[1]);
            let has_value = store.tuples_with(data_rel, 0, o).any(|d| d[1] == a);
            if !has_value {
                to_add.push(RAtom {
                    rel: data_rel,
                    args: vec![o, a, Term::Null(nulls.fresh())],
                });
                stats.nulls_invented += 1;
                if stats.nulls_invented > opts.max_nulls {
                    return Err(DatalogError::BudgetExceeded {
                        facts: store.len(),
                        nulls: stats.nulls_invented,
                    });
                }
            }
        }
        if to_add.is_empty() {
            break;
        }
        for f in &to_add {
            store.insert(f.clone())?;
        }
        delta = to_add;
    }

    stats.facts = store.len();
    Ok((from_store(&store)?, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: &str) -> Term {
        Term::constant(n)
    }

    #[test]
    fn datalog_program_has_ten_rules() {
        assert_eq!(sigma_datalog_program().rules().len(), 10);
    }

    #[test]
    fn closure_of_closed_db_is_identity() {
        let db: Database = [Atom::member(c("john"), c("student"))]
            .into_iter()
            .collect();
        let (closed, stats) = close_database(&db, &ClosureOptions::default()).unwrap();
        assert_eq!(closed.len(), 1);
        assert_eq!(stats.nulls_invented, 0);
        assert!(closed.satisfies_sigma());
    }

    #[test]
    fn closure_derives_inherited_facts() {
        // john:freshman, freshman::student, student::person, person[age*=>number]
        let db: Database = [
            Atom::member(c("john"), c("freshman")),
            Atom::sub(c("freshman"), c("student")),
            Atom::sub(c("student"), c("person")),
            Atom::typ(c("person"), c("age"), c("number")),
        ]
        .into_iter()
        .collect();
        let (closed, _) = close_database(&db, &ClosureOptions::default()).unwrap();
        // ρ2: sub transitivity; ρ3: membership; ρ7: type inheritance to
        // subclasses; ρ6: type inheritance to members.
        assert!(closed.contains(&Atom::sub(c("freshman"), c("person"))));
        assert!(closed.contains(&Atom::member(c("john"), c("student"))));
        assert!(closed.contains(&Atom::member(c("john"), c("person"))));
        assert!(closed.contains(&Atom::typ(c("student"), c("age"), c("number"))));
        assert!(closed.contains(&Atom::typ(c("john"), c("age"), c("number"))));
        assert!(closed.satisfies_sigma());
    }

    #[test]
    fn rho5_invents_a_value_and_rho1_types_it() {
        // mandatory(name, john), type(john, name, string):
        // ρ5 invents data(john, name, _v1), ρ1 derives member(_v1, string).
        let db: Database = [
            Atom::mandatory(c("name"), c("john")),
            Atom::typ(c("john"), c("name"), c("string")),
        ]
        .into_iter()
        .collect();
        let (closed, stats) = close_database(&db, &ClosureOptions::default()).unwrap();
        assert_eq!(stats.nulls_invented, 1);
        let data = closed.pred_facts(Pred::Data);
        assert_eq!(data.len(), 1);
        let value = data[0].arg(2);
        assert!(value.is_null());
        assert!(closed.contains(&Atom::member(value, c("string"))));
        assert!(closed.satisfies_sigma());
    }

    #[test]
    fn rho5_not_applied_when_value_exists() {
        let db: Database = [
            Atom::mandatory(c("name"), c("john")),
            Atom::data(c("john"), c("name"), c("j")),
        ]
        .into_iter()
        .collect();
        let (closed, stats) = close_database(&db, &ClosureOptions::default()).unwrap();
        assert_eq!(stats.nulls_invented, 0);
        assert_eq!(closed.pred_facts(Pred::Data).len(), 1);
    }

    #[test]
    fn rho4_merges_null_into_constant() {
        // funct(age, john) with an invented value and a real one: the null
        // must merge into 33.
        let db: Database = [
            Atom::funct(c("age"), c("john")),
            Atom::mandatory(c("age"), c("john")),
            Atom::data(c("john"), c("age"), c("33")),
        ]
        .into_iter()
        .collect();
        let (closed, _) = close_database(&db, &ClosureOptions::default()).unwrap();
        let data = closed.pred_facts(Pred::Data);
        assert_eq!(data.len(), 1);
        assert_eq!(data[0].arg(2), c("33"));
        assert!(closed.satisfies_sigma());
    }

    #[test]
    fn rho4_on_two_constants_is_inconsistent() {
        let db: Database = [
            Atom::funct(c("age"), c("john")),
            Atom::data(c("john"), c("age"), c("33")),
            Atom::data(c("john"), c("age"), c("34")),
        ]
        .into_iter()
        .collect();
        let err = close_database(&db, &ClosureOptions::default()).unwrap_err();
        assert!(matches!(err, DatalogError::Inconsistent { .. }));
    }

    #[test]
    fn inherited_funct_triggers_merge() {
        // funct on the class, two values on the member: ρ12 then ρ4.
        let db: Database = [
            Atom::funct(c("age"), c("person")),
            Atom::member(c("john"), c("person")),
            Atom::data(c("john"), c("age"), c("33")),
            Atom::data(c("john"), c("age"), c("34")),
        ]
        .into_iter()
        .collect();
        let err = close_database(&db, &ClosureOptions::default()).unwrap_err();
        assert!(matches!(err, DatalogError::Inconsistent { .. }));
    }

    #[test]
    fn mandatory_cycle_exhausts_budget() {
        // The paper's infinite-chase pattern (Section 4): a cycle of
        // mandatory attributes with types closing the loop.
        let db: Database = [
            Atom::mandatory(c("a"), c("t")),
            Atom::typ(c("t"), c("a"), c("t")),
            Atom::member(c("o"), c("t")),
        ]
        .into_iter()
        .collect();
        let err = close_database(
            &db,
            &ClosureOptions {
                max_facts: 500,
                max_nulls: 50,
            },
        )
        .unwrap_err();
        assert!(matches!(err, DatalogError::BudgetExceeded { .. }));
    }

    #[test]
    fn infinite_generated_closure_stops_at_the_fact_budget() {
        // The E4 generator's scale-4 database (seed 1, 119 facts) has a
        // mandatory cycle, so its closure is infinite. Each round only
        // joins what the previous one added, so the default budget stops
        // it in well under a second.
        let scale = 4;
        let cfg = flogic_gen::DbGenConfig {
            n_classes: 6 * scale,
            n_objects: 8 * scale,
            n_attrs: 4 * scale,
            n_sub_edges: 5 * scale,
            n_members: 8 * scale,
            n_types: 5 * scale,
            n_data: 8 * scale,
            n_mandatory: 2 * scale,
            n_funct: 2 * scale,
        };
        let mut rng = flogic_gen::rng::SplitMix64::seed_from_u64(1);
        let db = flogic_gen::random_database(&cfg, &mut rng);
        let err = close_database(&db, &ClosureOptions::default()).unwrap_err();
        assert_eq!(
            err,
            DatalogError::BudgetExceeded {
                facts: 20_004,
                nulls: 1_454
            }
        );
    }

    #[test]
    fn closure_is_idempotent() {
        let db: Database = [
            Atom::member(c("john"), c("freshman")),
            Atom::sub(c("freshman"), c("student")),
            Atom::mandatory(c("name"), c("student")),
        ]
        .into_iter()
        .collect();
        let (closed1, _) = close_database(&db, &ClosureOptions::default()).unwrap();
        let (closed2, stats2) = close_database(&closed1, &ClosureOptions::default()).unwrap();
        assert_eq!(closed1.len(), closed2.len());
        assert_eq!(stats2.nulls_invented, 0);
    }
}
