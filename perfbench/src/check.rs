//! Correctness gates shared by the workloads. A failed gate fails the run.

use stm_core::heap::{Heap, ObjRef, Word};

/// Sums `read(o)` over `objs` (wrapping, like the balances it checks).
pub fn sum(objs: &[ObjRef], mut read: impl FnMut(ObjRef) -> Word) -> Word {
    objs.iter()
        .fold(0, |acc: Word, &o| acc.wrapping_add(read(o)))
}

/// Fails unless `got == want`.
pub fn expect_total(what: &str, got: Word, want: Word) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: total {got}, expected {want}"))
    }
}

/// Fails unless `heap` audits clean.
pub fn audit(what: &str, heap: &Heap) -> Result<(), String> {
    let report = heap.audit();
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("{what}: heap audit failed:\n{report}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::barrier::read_barrier;
    use stm_core::prelude::*;

    /// The conservation check catches a heap whose total was knocked off
    /// balance by a single stray write.
    #[test]
    fn conservation_check_catches_an_unbalanced_heap() {
        let heap = Heap::new(crate::config::pinned(true));
        let shape = heap.define_shape(Shape::new("Account", vec![FieldDef::int("balance")]));
        let accounts: Vec<ObjRef> = (0..16)
            .map(|_| {
                let o = heap.alloc_public(shape);
                heap.write_raw(o, 0, 100);
                o
            })
            .collect();
        // A balanced transfer keeps the total.
        atomic(&heap, |tx| {
            let a = tx.read(accounts[3], 0)?;
            tx.write(accounts[3], 0, a - 30)?;
            let b = tx.read(accounts[9], 0)?;
            tx.write(accounts[9], 0, b + 30)
        });
        let total = sum(&accounts, |o| read_barrier(&heap, o, 0));
        assert!(expect_total("balanced", total, 1600).is_ok());
        audit("balanced", &heap).unwrap();
        // Half a transfer does not.
        atomic(&heap, |tx| {
            let a = tx.read(accounts[5], 0)?;
            tx.write(accounts[5], 0, a - 1)
        });
        let total = sum(&accounts, |o| heap.read_raw(o, 0));
        let err = expect_total("unbalanced", total, 1600).unwrap_err();
        assert!(err.contains("1599"), "{err}");
    }
}
