//! Dynamic escape analysis: object publication (paper §4, Figure 11).
//!
//! Under DEA every freshly allocated object is *private* — visible to one
//! thread — and barriers on private objects skip all synchronization. An
//! object is *published* (made public) when a reference leading to it is
//! written into another public object or a static field, or when it is
//! handed to a newly spawned thread. Publication is one-way: once public,
//! always public.
//!
//! `publish` walks the graph of private objects reachable from the root with
//! an explicit mark stack (the paper reuses GC infrastructure; we use a
//! `Vec`). The paper's termination argument carries over verbatim: the graph
//! of private objects reachable from the root is finite and fixed (no other
//! thread can extend it, private objects are unreachable from public ones),
//! each visit of a private object immediately marks it public, and traversal
//! never continues past a public object, so every object is visited at most
//! once.
//!
//! DEA is independent of [`crate::config::Granularity`]: the privacy
//! authority is always the record embedded in the object header, even when
//! conflict detection runs over the striped ownership-record table —
//! private objects never touch a stripe slot, and publication flips only
//! the embedded word ([`crate::heap::Heap::guard_load`] folds the two).

use crate::heap::{Heap, Kind, ObjRef, Word};
use std::sync::atomic::Ordering;

/// Publishes `root` and every private object transitively reachable from it.
///
/// No-op if `root` is already public. Safe to call from inside a transaction:
/// in an eager-versioning STM a doomed transaction may expose references it
/// wrote speculatively, so publication must happen at the write, not at
/// commit (paper §4, last paragraph).
pub fn publish(heap: &Heap, root: ObjRef) {
    publish_with(heap, root, &mut |_| {});
}

/// Like [`publish`], invoking `on_published` for every object transitioned
/// from private to public (the transaction engines use this to compensate
/// their private-access bookkeeping).
pub fn publish_with(heap: &Heap, root: ObjRef, on_published: &mut dyn FnMut(ObjRef)) {
    // Checked lookups throughout: the walked words come out of shared
    // memory, and a doomed (panic-unwound, not-yet-reclaimed) writer may
    // have left a speculative or half-written reference behind. A word that
    // does not name a real object is skipped, not followed into a panic.
    let Some(obj) = heap.try_obj(root) else { return };
    if !obj.rec.load_relaxed().is_private() {
        return;
    }
    // Mark first, then push: later encounters of an already-marked object
    // stop the traversal, which also breaks cycles.
    obj.rec.publish();
    heap.stats.publish();
    on_published(root);
    let mut stack = vec![root];
    while let Some(o) = stack.pop() {
        let obj = heap.obj(o);
        // An object's reference slots come from its shape, every slot of a
        // reference array is one, an integer array has none.
        let (ref_fields, array_len): (&[u32], usize) = match obj.kind {
            Kind::Object(shape) => (&heap.shape(shape).ref_fields, 0),
            Kind::RefArray => (&[], obj.fields.len()),
            Kind::IntArray => (&[], 0),
        };
        for slot in ref_fields.iter().map(|&i| i as usize).chain(0..array_len) {
            // The object graph below `o` is private to this thread, so a
            // relaxed read observes the thread's own writes.
            let word = obj.field(slot).load(Ordering::Relaxed);
            if let Some(target) = ObjRef::from_word(word) {
                let Some(t) = heap.try_obj(target) else { continue };
                if t.rec.load_relaxed().is_private() {
                    t.rec.publish();
                    heap.stats.publish();
                    on_published(target);
                    stack.push(target);
                }
            }
        }
    }
}

/// Publishes the object referenced by a field word, if any.
#[inline]
pub fn publish_word(heap: &Heap, word: Word) {
    if let Some(r) = ObjRef::from_word(word) {
        publish(heap, r);
    }
}

/// Publishes every object reachable from the given roots. Call before
/// spawning a thread with these values (paper §4: "Thread objects become
/// public prior to the thread being spawned").
pub fn publish_for_spawn(heap: &Heap, roots: &[Word]) {
    for &w in roots {
        publish_word(heap, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StmConfig;
    use crate::heap::{FieldDef, Shape};

    fn dea_heap() -> std::sync::Arc<Heap> {
        Heap::new(StmConfig { dea: true, ..StmConfig::default() })
    }

    fn node_shape(heap: &Heap) -> crate::heap::ShapeId {
        heap.define_shape(Shape::new(
            "Node",
            vec![FieldDef::int("val"), FieldDef::reference("next")],
        ))
    }

    #[test]
    fn publish_single_object() {
        let heap = dea_heap();
        let s = node_shape(&heap);
        let o = heap.alloc(s);
        assert!(heap.is_private(o));
        publish(&heap, o);
        assert!(!heap.is_private(o));
        assert_eq!(heap.stats().snapshot().publishes, 1);
    }

    #[test]
    fn publish_is_idempotent() {
        let heap = dea_heap();
        let s = node_shape(&heap);
        let o = heap.alloc(s);
        publish(&heap, o);
        publish(&heap, o);
        assert_eq!(heap.stats().snapshot().publishes, 1);
    }

    #[test]
    fn publish_traverses_chain() {
        let heap = dea_heap();
        let s = node_shape(&heap);
        let a = heap.alloc(s);
        let b = heap.alloc(s);
        let c = heap.alloc(s);
        heap.write_raw(a, 1, b.to_word());
        heap.write_raw(b, 1, c.to_word());
        publish(&heap, a);
        assert!(!heap.is_private(a));
        assert!(!heap.is_private(b));
        assert!(!heap.is_private(c));
    }

    #[test]
    fn publish_terminates_on_cycles() {
        let heap = dea_heap();
        let s = node_shape(&heap);
        let a = heap.alloc(s);
        let b = heap.alloc(s);
        heap.write_raw(a, 1, b.to_word());
        heap.write_raw(b, 1, a.to_word());
        publish(&heap, a);
        assert!(!heap.is_private(a));
        assert!(!heap.is_private(b));
        assert_eq!(heap.stats().snapshot().publishes, 2);
    }

    #[test]
    fn publish_stops_at_public_objects() {
        let heap = dea_heap();
        let s = node_shape(&heap);
        let a = heap.alloc(s);
        let pub_mid = heap.alloc_public(s);
        let hidden = heap.alloc(s);
        heap.write_raw(a, 1, pub_mid.to_word());
        heap.write_raw(pub_mid, 1, hidden.to_word());
        publish(&heap, a);
        assert!(!heap.is_private(a));
        // Traversal must not continue beyond the already-public object:
        // no private object is reachable *through* public objects in a
        // correct execution (the invariant the paper relies on), and the
        // traversal respects it.
        assert!(heap.is_private(hidden));
    }

    #[test]
    fn publish_handles_ref_arrays() {
        let heap = dea_heap();
        let s = node_shape(&heap);
        let arr = heap.alloc_ref_array(3);
        let x = heap.alloc(s);
        let y = heap.alloc(s);
        heap.write_raw(arr, 0, x.to_word());
        heap.write_raw(arr, 2, y.to_word());
        publish(&heap, arr);
        assert!(!heap.is_private(arr));
        assert!(!heap.is_private(x));
        assert!(!heap.is_private(y));
    }

    #[test]
    fn publish_ignores_int_arrays_contents() {
        let heap = dea_heap();
        let arr = heap.alloc_int_array(4);
        // Values that happen to look like references must not be chased.
        let s = node_shape(&heap);
        let decoy = heap.alloc(s);
        heap.write_raw(arr, 0, decoy.to_word());
        publish(&heap, arr);
        assert!(!heap.is_private(arr));
        assert!(heap.is_private(decoy), "int array contents are not references");
    }

    #[test]
    fn publish_for_spawn_publishes_all_roots() {
        let heap = dea_heap();
        let s = node_shape(&heap);
        let a = heap.alloc(s);
        let b = heap.alloc(s);
        publish_for_spawn(&heap, &[a.to_word(), 0, b.to_word()]);
        assert!(!heap.is_private(a));
        assert!(!heap.is_private(b));
    }

    #[test]
    fn publish_wide_graph() {
        let heap = dea_heap();
        let arr = heap.alloc_ref_array(100);
        let s = node_shape(&heap);
        for i in 0..100 {
            let n = heap.alloc(s);
            heap.write_raw(arr, i, n.to_word());
        }
        publish(&heap, arr);
        assert_eq!(heap.stats().snapshot().publishes, 101);
        for i in 0..100 {
            let n = ObjRef::from_word(heap.read_raw(arr, i)).unwrap();
            assert!(!heap.is_private(n));
        }
    }
}
