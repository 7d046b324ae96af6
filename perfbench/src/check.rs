//! Output checks. Each function compares what the program returned with
//! a result the benchmark computes on its own side, and returns `true`
//! when they agree; a `false` is counted as one failed operation.

/// Entries one SCAN asks for.
pub const SCAN_LEN: u64 = 100;

/// A GET of a preloaded dense key returns `key + 1`.
pub fn get_ok(key: u64, got: Option<u64>) -> bool {
    got == Some(key + 1)
}

/// A SCAN of `SCAN_LEN` from `start` over dense keys `0..n` returns
/// exactly `min(SCAN_LEN, n - start)` consecutive keys from `start`, each
/// with the value `value_of(key)`.
pub fn scan_ok(start: u64, n: u64, got: &[(u64, u64)], value_of: impl Fn(u64) -> u64) -> bool {
    let want = SCAN_LEN.min(n.saturating_sub(start));
    got.len() as u64 == want
        && got
            .iter()
            .zip(start..)
            .all(|(&(k, v), expect)| k == expect && v == value_of(k))
}

/// The client-side model of one connection's writes over dense keys
/// `0..n`, preloaded with `key + 1`. A connection's requests execute in
/// order, so the model is advanced when a SET is sent.
#[derive(Debug, Clone)]
pub struct Model(Vec<u64>);

impl Model {
    pub fn preloaded(n: u64) -> Model {
        Model((1..=n).collect())
    }

    pub fn value(&self, key: u64) -> u64 {
        self.0[key as usize]
    }

    /// Record a SET sent on the connection; returns the old value the
    /// server must answer with.
    pub fn set(&mut self, key: u64, value: u64) -> u64 {
        std::mem::replace(&mut self.0[key as usize], value)
    }
}

/// A SET's reply carries the old value the model predicted.
pub fn set_ok(expected_old: u64, got: Option<u64>) -> bool {
    got == Some(expected_old)
}

/// The value `index-hot` stores under `key`: the key in the high half,
/// a writer sequence number in the low half.
pub fn tagged(key: u64, seq: u32) -> u64 {
    (key << 32) | u64::from(seq)
}

/// A value read in `index-hot` carries its own key's tag.
pub fn tag_ok(key: u64, got: Option<u64>) -> bool {
    matches!(got, Some(v) if v >> 32 == key)
}

/// One chunk of the final ordered sweep in `index-hot`: consecutive keys
/// from `start` (so chunks chained from 0 cover all `n` keys in
/// ascending order), each value tagged with its key.
pub fn sweep_chunk_ok(start: u64, n: u64, got: &[(u64, u64)]) -> bool {
    let want = SCAN_LEN.min(n.saturating_sub(start));
    got.len() as u64 == want
        && got
            .iter()
            .zip(start..)
            .all(|(&(k, v), expect)| k == expect && v >> 32 == k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(start: u64, len: u64) -> Vec<(u64, u64)> {
        (start..start + len).map(|k| (k, k + 1)).collect()
    }

    #[test]
    fn get_accepts_key_plus_one_only() {
        assert!(get_ok(7, Some(8)));
        assert!(!get_ok(7, Some(7)), "wrong value must fail");
        assert!(!get_ok(7, None), "missing key must fail");
    }

    #[test]
    fn scan_accepts_exact_runs() {
        assert!(scan_ok(10, 1000, &dense(10, 100), |k| k + 1));
        // Near the end of the keyspace the run is short by design.
        assert!(scan_ok(950, 1000, &dense(950, 50), |k| k + 1));
    }

    #[test]
    fn scan_rejects_gapped_short_long_and_wrong_values() {
        let mut gapped = dense(10, 101);
        gapped.remove(40);
        assert!(!scan_ok(10, 1000, &gapped, |k| k + 1), "gap must fail");
        assert!(
            !scan_ok(10, 1000, &dense(10, 99), |k| k + 1),
            "short must fail"
        );
        assert!(
            !scan_ok(950, 1000, &dense(950, 49), |k| k + 1),
            "short tail must fail"
        );
        assert!(
            !scan_ok(10, 1000, &dense(11, 100), |k| k + 1),
            "wrong start must fail"
        );
        let mut bad = dense(10, 100);
        bad[5].1 = 0;
        assert!(!scan_ok(10, 1000, &bad, |k| k + 1), "wrong value must fail");
    }

    #[test]
    fn set_old_value_follows_the_model() {
        let mut m = Model::preloaded(100);
        let old = m.set(5, 77);
        assert_eq!(old, 6);
        assert!(set_ok(old, Some(6)));
        let old = m.set(5, 78);
        assert!(set_ok(old, Some(77)));
        assert!(!set_ok(old, Some(6)), "stale old value must fail");
        assert!(!set_ok(old, None), "missing old value must fail");
    }

    #[test]
    fn recovery_sweep_rejects_a_missing_or_stale_key() {
        let mut m = Model::preloaded(1000);
        m.set(42, 9000);
        let mut got: Vec<(u64, u64)> = (0..100).map(|k| (k, m.value(k))).collect();
        assert!(scan_ok(0, 1000, &got, |k| m.value(k)));
        let mut missing = got.clone();
        missing.remove(42);
        assert!(
            !scan_ok(0, 1000, &missing, |k| m.value(k)),
            "lost key must fail"
        );
        got[42].1 = 43;
        assert!(
            !scan_ok(0, 1000, &got, |k| m.value(k)),
            "lost update must fail"
        );
    }

    #[test]
    fn tags_must_name_their_own_key() {
        assert!(tag_ok(3, Some(tagged(3, 9))));
        assert!(
            !tag_ok(3, Some(tagged(4, 9))),
            "other key's value must fail"
        );
        assert!(!tag_ok(3, None), "missing key must fail");
        let good: Vec<(u64, u64)> = (0..100).map(|k| (k, tagged(k, 1))).collect();
        assert!(sweep_chunk_ok(0, 500, &good));
        let mut swapped = good.clone();
        swapped[7].1 = tagged(8, 1);
        assert!(!sweep_chunk_ok(0, 500, &swapped), "foreign tag must fail");
        let mut unordered = good.clone();
        unordered.swap(3, 4);
        assert!(
            !sweep_chunk_ok(0, 500, &unordered),
            "descending pair must fail"
        );
        assert!(
            !sweep_chunk_ok(0, 500, &good[..99]),
            "short chunk must fail"
        );
    }
}
