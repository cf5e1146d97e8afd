//! # distsim — synchronous round-based distributed simulation
//!
//! Every construction in the paper is evaluated by "the number of rounds of
//! information exchanges and updates between neighbors" (Figure 11). This
//! crate provides the substrate on which those rounds are executed and
//! counted:
//!
//! * [`LocalRuleAutomaton`] + [`run_local_rule`] — the *neighborhood rule*
//!   model: in each round every node reads its neighbors' current states and
//!   computes its next state. Labelling scheme 1 (faulty-block growing) and
//!   labelling scheme 2 (polygon shrinking) are local rules.
//! * [`MessageAutomaton`] + [`MessageEngine`] — the *message passing* model:
//!   nodes hold state and exchange explicit messages delivered one hop per
//!   round. The distributed boundary-ring construction and the concave
//!   section notification of Section 3.2 are message protocols.
//! * [`RoundStats`] — round / message / state-change accounting shared by
//!   both engines.
//!
//! Both engines are deterministic: node updates are applied synchronously and
//! message inboxes are sorted, so a given protocol and fault pattern always
//! produces the same result and the same round count.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod message;
pub mod stats;

pub use engine::{run_local_rule, run_local_rule_with_limit, LocalRuleAutomaton};
pub use message::{Envelope, MessageAutomaton, MessageEngine};
pub use stats::RoundStats;
