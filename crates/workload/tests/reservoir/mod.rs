//! A decimating sample reservoir, kept as the oracle for the tree's
//! 95th percentile, which `LoadRuns::percentile_95_every` reads off the
//! load runs without copying a sample.

/// Feed `samples` to a reservoir that holds at most `cap` of them (at
/// least 2) and return what it keeps, in series order, with its final
/// stride. Non-finite samples are skipped and not counted. A sample whose
/// index is a multiple of the stride is kept; when one arrives with the
/// reservoir full, every other kept sample is dropped and the stride
/// doubles first.
pub fn decimate(samples: impl IntoIterator<Item = f64>, cap: usize) -> (Vec<f64>, usize) {
    let cap = cap.max(2);
    let (mut kept, mut stride, mut seen) = (Vec::new(), 1usize, 0usize);
    for x in samples.into_iter().filter(|x| x.is_finite()) {
        if seen % stride == 0 {
            if kept.len() >= cap {
                kept = kept.iter().copied().step_by(2).collect();
                stride *= 2;
                if seen % stride == 0 {
                    kept.push(x);
                }
            } else {
                kept.push(x);
            }
        }
        seen += 1;
    }
    (kept, stride)
}
