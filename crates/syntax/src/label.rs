//! Blame labels `p, q` with the involutive complement operation `p̄`.
//!
//! Each cast/projection is decorated with a blame label. To indicate on
//! which side of a cast blame lies, each label `p` has a complement
//! `p̄`; complement is involutive (`p̄̄ = p`). Blame allocated to `p` is
//! *positive* (the term inside the cast is at fault), blame allocated
//! to `p̄` is *negative* (the context is at fault).

use std::fmt;

/// A blame label.
///
/// A label is identified by a numeric id plus a polarity; complementing
/// a label flips its polarity and keeps the id:
///
/// ```
/// use bc_syntax::Label;
/// let p = Label::new(3);
/// assert_eq!(p.complement().complement(), p);
/// assert_ne!(p.complement(), p);
/// ```
///
/// The distinguished *bullet* label `•` ([`Label::bullet`]) decorates
/// casts that can never allocate blame (used by the λC → λB translation
/// of Figure 4); it is its own complement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label {
    id: u32,
    negated: bool,
}

/// Reserved id for the bullet label `•`.
const BULLET_ID: u32 = u32::MAX;

impl Label {
    /// Creates the positive label with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is `u32::MAX`, which is reserved for [`Label::bullet`].
    pub fn new(id: u32) -> Label {
        assert!(id != BULLET_ID, "label id u32::MAX is reserved for •");
        Label { id, negated: false }
    }

    /// The bullet label `•`, decorating casts that cannot allocate
    /// blame. It is its own complement and is safe for every label.
    pub const fn bullet() -> Label {
        Label {
            id: BULLET_ID,
            negated: false,
        }
    }

    /// Whether this is the bullet label `•`.
    pub fn is_bullet(&self) -> bool {
        self.id == BULLET_ID
    }

    /// The complement `p̄`. Involutive: `p.complement().complement() == p`.
    /// The bullet label is its own complement.
    #[must_use]
    pub fn complement(self) -> Label {
        if self.is_bullet() {
            self
        } else {
            Label {
                id: self.id,
                negated: !self.negated,
            }
        }
    }

    /// The label's numeric id (shared between `p` and `p̄`).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Whether the label is positive (an un-complemented `p`).
    pub fn is_positive(&self) -> bool {
        !self.negated
    }

    /// The positive version of this label (`p` for either `p` or `p̄`).
    #[must_use]
    pub fn positive(self) -> Label {
        Label {
            id: self.id,
            negated: false,
        }
    }
}

/// A supply of fresh blame labels.
///
/// The embedding `⌈·⌉` of Figure 1 and the GTLC cast-insertion pass
/// both introduce "a fresh label for each cast"; this supply hands
/// them out.
///
/// ```
/// use bc_syntax::label::LabelSupply;
/// let mut supply = LabelSupply::new();
/// assert_ne!(supply.fresh(), supply.fresh());
/// ```
#[derive(Debug, Clone, Default)]
pub struct LabelSupply {
    next: u32,
}

impl LabelSupply {
    /// Creates a supply starting from label id 0.
    pub fn new() -> LabelSupply {
        LabelSupply::default()
    }

    /// Returns a positive label not returned before by this supply.
    ///
    /// # Panics
    ///
    /// Panics if all `u32::MAX` label ids have been exhausted.
    pub fn fresh(&mut self) -> Label {
        let l = Label::new(self.next);
        self.next = self
            .next
            .checked_add(1)
            .expect("blame label supply exhausted");
        l
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_bullet() {
            f.write_str("•")
        } else if self.negated {
            write!(f, "~p{}", self.id)
        } else {
            write!(f, "p{}", self.id)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complement_is_involutive() {
        for id in [0, 1, 17, 4000] {
            let p = Label::new(id);
            assert_eq!(p.complement().complement(), p);
            assert_ne!(p.complement(), p);
            assert_eq!(p.complement().id(), p.id());
        }
    }

    #[test]
    fn bullet_is_self_complementary() {
        let b = Label::bullet();
        assert!(b.is_bullet());
        assert_eq!(b.complement(), b);
    }

    #[test]
    fn display() {
        assert_eq!(Label::new(2).to_string(), "p2");
        assert_eq!(Label::new(2).complement().to_string(), "~p2");
        assert_eq!(Label::bullet().to_string(), "•");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_id_panics() {
        let _ = Label::new(u32::MAX);
    }
}
