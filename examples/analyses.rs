//! A guided tour of the paper's data-flow analyses (Tables 1–3) on the
//! running example: prints the local predicates and the solved facts that
//! drive each transformation, the way one would trace the algorithm by
//! hand.
//!
//! ```sh
//! cargo run --example analyses
//! ```

use assignment_motion::alg::{flush, hoist, init, motion, rae};
use assignment_motion::ir::{text::parse, FlowGraph};

const RUNNING_EXAMPLE: &str = "
    start 1
    end 4
    node 1 { y := c+d }
    node 2 { branch x+z > y+i }
    node 3 { y := c+d; x := y+z; i := i+x }
    node 4 { x := y+z; x := c+d; out(i,x,y) }
    edge 1 -> 2
    edge 2 -> 3, 4
    edge 3 -> 2
";

fn show_hoisting(g: &FlowGraph, title: &str) {
    println!("== Table 1 (hoistability) — {title} ==");
    let analysis = hoist::analyze_hoisting(g);
    println!(
        "{:<8} {:<28} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8}",
        "node", "pattern", "LOC-H", "LOC-B", "N-H*", "X-H*", "N-INS", "X-INS"
    );
    for n in g.nodes() {
        for (i, pat) in analysis.universe.assign_patterns() {
            let any = analysis.loc_hoistable[n.index()].contains(i)
                || analysis.loc_blocked[n.index()].contains(i)
                || analysis.n_insert[n.index()].contains(i)
                || analysis.x_insert[n.index()].contains(i);
            if !any {
                continue;
            }
            println!(
                "{:<8} {:<28} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8}",
                g.label(n),
                pat.display(g.pool()),
                analysis.loc_hoistable[n.index()].contains(i),
                analysis.loc_blocked[n.index()].contains(i),
                analysis.hoistable.before[n.index()].contains(i),
                analysis.hoistable.after[n.index()].contains(i),
                analysis.n_insert[n.index()].contains(i),
                analysis.x_insert[n.index()].contains(i),
            );
        }
    }
    println!();
}

fn show_redundancy(g: &FlowGraph, title: &str) {
    println!("== Table 2 (redundancy) — {title} ==");
    let analysis = rae::analyze_redundancy(g);
    for n in g.nodes() {
        let facts = analysis.block_facts(g, n);
        for (instr, fact) in g.instrs(n).zip(&facts) {
            let redundant: Vec<String> = analysis
                .universe
                .assign_patterns()
                .filter(|(i, _)| fact.contains(*i))
                .map(|(_, pat)| pat.display(g.pool()))
                .collect();
            if !redundant.is_empty() {
                println!(
                    "before '{}' in node {}: redundant {{{}}}",
                    instr.display(g.pool()),
                    g.label(n),
                    redundant.join(", ")
                );
            }
        }
    }
    println!();
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut g = parse(RUNNING_EXAMPLE)?;
    g.split_critical_edges();

    println!("--- input program ---\n{g:?}");
    show_hoisting(&g, "before initialization");

    init::initialize(&mut g);
    println!("--- after initialization (Fig. 12) ---");
    show_redundancy(&g, "G_Init");
    show_hoisting(&g, "G_Init");

    let stats = motion::assignment_motion(&mut g);
    println!(
        "--- after assignment motion: {} rounds, {} eliminations, {} insertions ---",
        stats.rounds, stats.eliminated, stats.inserted
    );
    show_redundancy(&g, "G_AssMot (stable: nothing redundant)");
    show_flush(&mut g);

    // Graphviz rendering of the result, for paper-style figures.
    println!("--- Graphviz of G_AssMot ---");
    println!("{}", assignment_motion::ir::dot::to_dot(&g));
    Ok(())
}

fn show_flush(g: &mut FlowGraph) {
    println!("== Table 3 (delayability / usability) — G_AssMot ==");
    let analysis = flush::analyze_flush(g);
    println!(
        "{:<24} {:<10} {:>8} {:>8} {:>8} {:>8}",
        "instruction", "pattern", "N-DELAY", "X-DELAY", "N-USABLE", "X-USABLE"
    );
    for n in g.nodes() {
        let facts = analysis.block_facts(g, n);
        for (instr, f) in g.instrs(n).zip(&facts) {
            for (i, eps) in analysis.universe.expr_patterns() {
                let interesting =
                    f.is_inst.contains(i) || f.used.contains(i) || f.blocked.contains(i);
                if !interesting {
                    continue;
                }
                println!(
                    "{:<24} {:<10} {:>8} {:>8} {:>8} {:>8}",
                    instr.display(g.pool()),
                    eps.display(g.pool()),
                    f.n_delay.contains(i),
                    f.x_delay.contains(i),
                    f.n_usable.contains(i),
                    f.x_usable.contains(i),
                );
            }
        }
    }
    println!();
}
