//! Deterministic synthetic Bookshelf designs.
//!
//! CI needs million-net ingestion coverage without committing fixture
//! files, so this module *generates* Bookshelf designs: cells on a
//! square grid, nets drawn with a locality-biased offset distribution
//! (short wires dominate, as in every real placement), all driven by a
//! [splitmix64](https://prng.di.unimi.it/splitmix64.c) stream so the
//! same `(cells, nets, seed)` triple produces byte-identical files on
//! every platform. The generator writes with a [`std::io::BufWriter`]
//! and `O(1)` state per net, so producing a 1M-net design is a
//! streaming operation on both ends.

use crate::NetlistError;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A deterministic synthetic design: `cells` cells on the smallest
/// square grid that holds them, `nets` locality-biased nets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticDesign {
    cells: u64,
    nets: u64,
    seed: u64,
}

/// The three files one design writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BookshelfPaths {
    /// The `.nodes` file.
    pub nodes: PathBuf,
    /// The `.nets` file.
    pub nets: PathBuf,
    /// The `.pl` file.
    pub pl: PathBuf,
}

/// The splitmix64 step: a full-period 64-bit mixer, the customary seed
/// expander for reproducible simulation streams.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SyntheticDesign {
    /// Creates a design spec.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Parse`] (line 0) for fewer than 4 cells
    /// or zero nets — too small to draw a non-degenerate net from.
    pub fn new(cells: u64, nets: u64, seed: u64) -> Result<Self, NetlistError> {
        if cells < 4 || nets == 0 {
            return Err(NetlistError::Parse {
                line: 0,
                message: format!(
                    "synthetic design needs >= 4 cells and >= 1 net (got {cells} cells, {nets} nets)"
                ),
            });
        }
        Ok(Self { cells, nets, seed })
    }

    /// The grid side: the smallest square holding every cell.
    #[must_use]
    pub fn side(&self) -> u64 {
        let side = self.cells.isqrt();
        if side * side < self.cells {
            side + 1
        } else {
            side
        }
    }

    /// Cell `i`'s grid position (row-major).
    fn position(&self, cell: u64) -> (u64, u64) {
        let side = self.side();
        (cell % side, cell / side)
    }

    /// Draws one net: a driver and 1–3 sinks placed a locality-biased
    /// Manhattan radius away. Taking the minimum of three uniform draws
    /// biases the radius sharply toward short wires without any
    /// floating-point sampling, keeping the stream platform-exact.
    fn draw_net(&self, rng: &mut u64) -> (u64, Vec<u64>) {
        let side = self.side();
        let driver = splitmix64(rng) % self.cells;
        let fanout = 1 + splitmix64(rng) % 3;
        let mut sinks = Vec::with_capacity(fanout as usize);
        for _ in 0..fanout {
            let max_r = side.max(2);
            let r1 = splitmix64(rng) % max_r;
            let r2 = splitmix64(rng) % max_r;
            let r3 = splitmix64(rng) % max_r;
            let radius = 1 + r1.min(r2).min(r3);
            let (dx, dy) = (splitmix64(rng) % (radius + 1), splitmix64(rng));
            let dx = dx.min(radius);
            let dy_mag = radius - dx;
            let (px, py) = self.position(driver);
            let sx = if dy % 2 == 0 {
                px.saturating_add(dx).min(side - 1)
            } else {
                px.saturating_sub(dx)
            };
            let sy = if (dy >> 1) % 2 == 0 {
                py.saturating_add(dy_mag).min(side - 1)
            } else {
                py.saturating_sub(dy_mag)
            };
            let sink = (sy * side + sx).min(self.cells - 1);
            if sink != driver && !sinks.contains(&sink) {
                sinks.push(sink);
            }
        }
        if sinks.is_empty() {
            // Guarantee a non-degenerate net: fall back to the next
            // cell over (always distinct for cells >= 4).
            sinks.push((driver + 1) % self.cells);
        }
        (driver, sinks)
    }

    /// Writes `<stem>.nodes`, `<stem>.nets` and `<stem>.pl` under `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Io`] for filesystem failures.
    pub fn write_to(&self, dir: &Path, stem: &str) -> Result<BookshelfPaths, NetlistError> {
        std::fs::create_dir_all(dir).map_err(|e| io_error(dir, &e))?;
        let paths = BookshelfPaths {
            nodes: dir.join(format!("{stem}.nodes")),
            nets: dir.join(format!("{stem}.nets")),
            pl: dir.join(format!("{stem}.pl")),
        };
        write_file(&paths.nodes, |out| {
            writeln!(
                out,
                "UCLA nodes 1.0\nNumNodes : {}\nNumTerminals : 0",
                self.cells
            )?;
            for cell in 0..self.cells {
                writeln!(out, "c{cell} 1 1")?;
            }
            Ok(())
        })?;
        write_file(&paths.pl, |out| {
            writeln!(out, "UCLA pl 1.0")?;
            for cell in 0..self.cells {
                let (x, y) = self.position(cell);
                writeln!(out, "c{cell} {x} {y} : N")?;
            }
            Ok(())
        })?;

        // Two passes over the same deterministic stream: the first
        // counts pins for the header, the second writes — keeping the
        // writer single-pass over the file while the header stays
        // exact.
        let mut rng = self.seed;
        let mut pins: u64 = 0;
        for _ in 0..self.nets {
            let (_, sinks) = self.draw_net(&mut rng);
            pins += 1 + sinks.len() as u64;
        }
        write_file(&paths.nets, |out| {
            writeln!(
                out,
                "UCLA nets 1.0\nNumNets : {}\nNumPins : {pins}",
                self.nets
            )?;
            let mut rng = self.seed;
            for net in 0..self.nets {
                let (driver, sinks) = self.draw_net(&mut rng);
                writeln!(out, "NetDegree : {} n{net}", 1 + sinks.len())?;
                writeln!(out, "  c{driver} O : 0 0")?;
                for sink in sinks {
                    writeln!(out, "  c{sink} I : 0 0")?;
                }
            }
            Ok(())
        })?;
        Ok(paths)
    }
}

/// Creates `path` and fills it through a buffered writer, reporting
/// any failure against the path.
fn write_file(
    path: &Path,
    body: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> Result<(), NetlistError> {
    std::fs::File::create(path)
        .map(std::io::BufWriter::new)
        .and_then(|mut out| body(&mut out).and_then(|()| out.flush()))
        .map_err(|e| io_error(path, &e))
}

fn io_error(path: &Path, e: &std::io::Error) -> NetlistError {
    NetlistError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bookshelf;
    use crate::NetModel;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ia-netlist-synthetic-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = SyntheticDesign::new(100, 500, 7).unwrap();
        let d1 = scratch("det1");
        let d2 = scratch("det2");
        let p1 = spec.write_to(&d1, "x").unwrap();
        let p2 = spec.write_to(&d2, "x").unwrap();
        for (a, b) in [
            (&p1.nodes, &p2.nodes),
            (&p1.nets, &p2.nets),
            (&p1.pl, &p2.pl),
        ] {
            assert_eq!(
                std::fs::read(a).unwrap(),
                std::fs::read(b).unwrap(),
                "{a:?} differs from {b:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d2);
    }

    #[test]
    fn different_seeds_differ() {
        let dir = scratch("seeds");
        let a = SyntheticDesign::new(100, 500, 1)
            .unwrap()
            .write_to(&dir, "a")
            .unwrap();
        let b = SyntheticDesign::new(100, 500, 2)
            .unwrap()
            .write_to(&dir, "b")
            .unwrap();
        assert_ne!(
            std::fs::read(&a.nets).unwrap(),
            std::fs::read(&b.nets).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generated_designs_ingest_cleanly() {
        let dir = scratch("ingest");
        let spec = SyntheticDesign::new(2_500, 10_000, 42).unwrap();
        let paths = spec.write_to(&dir, "d").unwrap();
        let out =
            bookshelf::ingest_files(&paths.nodes, &paths.nets, &paths.pl, NetModel::Star).unwrap();
        assert_eq!(out.cells, 2_500);
        assert_eq!(out.nets, 10_000);
        // Locality bias: the histogram stays tiny relative to net count.
        assert!(out.wld.distinct_lengths() < 200);
        assert!(out.wld.total_wires() > 5_000);
        // Short wires dominate a locality-biased stream.
        let short = out.wld.total_wires() - out.wld.count_at_least(10).unwrap();
        assert!(short * 2 > out.wld.total_wires());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiny_specs_are_rejected() {
        assert!(SyntheticDesign::new(3, 10, 0).is_err());
        assert!(SyntheticDesign::new(100, 0, 0).is_err());
    }

    #[test]
    fn side_is_the_minimal_enclosing_square() {
        assert_eq!(SyntheticDesign::new(100, 1, 0).unwrap().side(), 10);
        assert_eq!(SyntheticDesign::new(101, 1, 0).unwrap().side(), 11);
        assert_eq!(SyntheticDesign::new(4, 1, 0).unwrap().side(), 2);
    }
}
