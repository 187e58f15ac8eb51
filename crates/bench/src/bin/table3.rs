//! Regenerates Table 3: the technology parameters of the 180/130/90 nm
//! nodes used in the rank studies.

use ia_report::Table;
use ia_tech::{presets, WiringTier};

fn main() {
    let nodes = [presets::tsmc180(), presets::tsmc130(), presets::tsmc90()];
    let mut t = Table::new(["Parameter", "180nm", "130nm", "90nm"]);
    let um = |v: f64| format!("{v:.3}µm");

    type Getter = Box<dyn Fn(&ia_tech::TechnologyNode) -> f64>;
    let rows: [(&str, Getter); 12] = [
        (
            "M1 minimum width",
            Box::new(|n| n.layer(WiringTier::Local).width.micrometers()),
        ),
        (
            "M1 minimum spacing",
            Box::new(|n| n.layer(WiringTier::Local).spacing.micrometers()),
        ),
        (
            "M1 thickness",
            Box::new(|n| n.layer(WiringTier::Local).thickness.micrometers()),
        ),
        (
            "Mx minimum width",
            Box::new(|n| n.layer(WiringTier::SemiGlobal).width.micrometers()),
        ),
        (
            "Mx minimum spacing",
            Box::new(|n| n.layer(WiringTier::SemiGlobal).spacing.micrometers()),
        ),
        (
            "Mx thickness",
            Box::new(|n| n.layer(WiringTier::SemiGlobal).thickness.micrometers()),
        ),
        (
            "Mt minimum width",
            Box::new(|n| n.layer(WiringTier::Global).width.micrometers()),
        ),
        (
            "Mt minimum spacing",
            Box::new(|n| n.layer(WiringTier::Global).spacing.micrometers()),
        ),
        (
            "Mt thickness",
            Box::new(|n| n.layer(WiringTier::Global).thickness.micrometers()),
        ),
        (
            "V1 minimum width",
            Box::new(|n| n.via(WiringTier::Local).width().micrometers()),
        ),
        (
            "Vx-1 minimum width",
            Box::new(|n| n.via(WiringTier::SemiGlobal).width().micrometers()),
        ),
        (
            "Vt-1 minimum width",
            Box::new(|n| n.via(WiringTier::Global).width().micrometers()),
        ),
    ];
    for (label, get) in rows {
        t.row([
            label.to_owned(),
            um(get(&nodes[0])),
            um(get(&nodes[1])),
            um(get(&nodes[2])),
        ]);
    }
    println!("Table 3 — technology parameters (TSMC, per the paper)\n");
    println!("{t}");

    println!("Derived device parameters (documented substitution, see DESIGN.md):\n");
    let mut d = Table::new(["Parameter", "180nm", "130nm", "90nm"]);
    d.row([
        "r_o".to_owned(),
        format!("{}", nodes[0].device().output_resistance),
        format!("{}", nodes[1].device().output_resistance),
        format!("{}", nodes[2].device().output_resistance),
    ]);
    d.row([
        "c_o".to_owned(),
        format!("{}", nodes[0].device().input_capacitance),
        format!("{}", nodes[1].device().input_capacitance),
        format!("{}", nodes[2].device().input_capacitance),
    ]);
    d.row([
        "min inverter area".to_owned(),
        format!("{}", nodes[0].device().min_inverter_area),
        format!("{}", nodes[1].device().min_inverter_area),
        format!("{}", nodes[2].device().min_inverter_area),
    ]);
    d.row([
        "gate pitch (12.6 × node)".to_owned(),
        format!("{}", nodes[0].gate_pitch()),
        format!("{}", nodes[1].gate_pitch()),
        format!("{}", nodes[2].gate_pitch()),
    ]);
    println!("{d}");
}
