//! The five BabelStream kernels and the region builder.

use ompvar_rt::region::{Construct, RegionSpec};

/// BabelStream configuration (upstream defaults, as used in the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Elements per array (doubles). The paper uses 2²⁵.
    pub array_elems: u64,
    /// Timed iterations per run (upstream default 100).
    pub iterations: u32,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            array_elems: 1 << 25,
            iterations: 100,
        }
    }
}

impl StreamConfig {
    /// Reduced-size configuration for tests and quick runs.
    pub fn small() -> Self {
        StreamConfig {
            array_elems: 1 << 18,
            iterations: 10,
        }
    }
}

/// The five kernels, in BabelStream's reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StreamKernel {
    /// `c[i] = a[i]`
    Copy,
    /// `b[i] = scalar * c[i]`
    Mul,
    /// `c[i] = a[i] + b[i]`
    Add,
    /// `a[i] = b[i] + scalar * c[i]`
    Triad,
    /// `sum += a[i] * b[i]`
    Dot,
}

impl StreamKernel {
    /// All kernels in order.
    pub const ALL: [StreamKernel; 5] = [
        StreamKernel::Copy,
        StreamKernel::Mul,
        StreamKernel::Add,
        StreamKernel::Triad,
        StreamKernel::Dot,
    ];

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            StreamKernel::Copy => "copy",
            StreamKernel::Mul => "mul",
            StreamKernel::Add => "add",
            StreamKernel::Triad => "triad",
            StreamKernel::Dot => "dot",
        }
    }

    /// Marker-pair id used for this kernel in the region.
    pub fn marker(&self) -> u32 {
        match self {
            StreamKernel::Copy => 0,
            StreamKernel::Mul => 1,
            StreamKernel::Add => 2,
            StreamKernel::Triad => 3,
            StreamKernel::Dot => 4,
        }
    }

    /// Bytes moved per kernel invocation for `elems`-element arrays
    /// (BabelStream's accounting: reads + writes of 8-byte doubles).
    pub fn bytes_moved(&self, elems: u64) -> f64 {
        let arrays = match self {
            StreamKernel::Copy | StreamKernel::Mul | StreamKernel::Dot => 2.0,
            StreamKernel::Add | StreamKernel::Triad => 3.0,
        };
        arrays * 8.0 * elems as f64
    }

    /// Whether the kernel ends in a reduction (dot product).
    pub fn has_reduction(&self) -> bool {
        matches!(self, StreamKernel::Dot)
    }
}

/// Build the BabelStream region: per iteration, each kernel is timed with
/// its own marker pair; kernels are separated by team barriers (each is
/// its own `parallel for` in the original).
pub fn region(cfg: &StreamConfig, n_threads: usize) -> RegionSpec {
    let mut body = Vec::new();
    for k in StreamKernel::ALL {
        let per_thread = k.bytes_moved(cfg.array_elems) / n_threads as f64;
        // BabelStream reads the timer on the master *before* forking the
        // kernel's parallel region (so a delayed master lengthens, never
        // shortens, the measured interval), then times until after the
        // join.
        body.push(Construct::MarkBegin(k.marker()));
        body.push(Construct::Barrier);
        body.push(Construct::StreamBytes(per_thread));
        if k.has_reduction() {
            // Dot's final combine: serialized accumulation + barrier.
            body.push(Construct::Reduction { body_us: 0.0 });
        } else {
            body.push(Construct::Barrier);
        }
        body.push(Construct::MarkEnd(k.marker()));
    }
    RegionSpec::new(
        n_threads,
        vec![Construct::Repeat {
            count: cfg.iterations,
            body,
        }],
    )
    .expect("BabelStream region is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_accounting_matches_babelstream() {
        let e = 1 << 25;
        assert_eq!(StreamKernel::Copy.bytes_moved(e), 2.0 * 8.0 * e as f64);
        assert_eq!(StreamKernel::Triad.bytes_moved(e), 3.0 * 8.0 * e as f64);
        assert_eq!(StreamKernel::Dot.bytes_moved(e), 2.0 * 8.0 * e as f64);
    }

    #[test]
    fn markers_are_distinct_and_ordered() {
        let ms: Vec<u32> = StreamKernel::ALL.iter().map(|k| k.marker()).collect();
        assert_eq!(ms, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn region_contains_all_kernels() {
        let r = region(&StreamConfig::small(), 4);
        let Construct::Repeat { count, body } = &r.constructs[0] else {
            panic!()
        };
        assert_eq!(*count, 10);
        let streams = body
            .iter()
            .filter(|c| matches!(c, Construct::StreamBytes(_)))
            .count();
        assert_eq!(streams, 5);
    }

    #[test]
    fn default_matches_paper_parameters() {
        let cfg = StreamConfig::default();
        assert_eq!(cfg.array_elems, 1 << 25);
        assert_eq!(cfg.iterations, 100);
    }
}
