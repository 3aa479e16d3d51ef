//! The encrypted relation `ER` produced by the database-encryption procedure of
//! Algorithm 2: one encrypted sorted list per (permuted) attribute, each entry being
//! `E(I^d) = ⟨EHL(o^d), Enc(x^d)⟩`.

use serde::{Deserialize, Serialize};

use sectopk_crypto::paillier::Ciphertext;
use sectopk_ehl::EhlPlus;

/// One encrypted data item: the EHL+ encoding of the object id plus the Paillier
/// encryption of its local score — the paper's `E(I_i^d) = ⟨EHL(o_i^d), Enc(x_i^d)⟩`.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct EncryptedItem {
    /// Encrypted hash list of the object id.
    pub ehl: EhlPlus,
    /// Paillier encryption of the local score.
    pub score: Ciphertext,
}

impl EncryptedItem {
    /// Serialized size in bytes (EHL+ block + score ciphertext) — the unit the bandwidth
    /// accounting of §11.2.5 is expressed in.
    pub fn byte_len(&self) -> usize {
        self.ehl.byte_len() + self.score.byte_len()
    }
}

/// One encrypted sorted list `L_{P_K(i)}`: the items of one attribute, best score first,
/// all encrypted.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct EncryptedList {
    items: Vec<EncryptedItem>,
}

impl EncryptedList {
    /// Wrap a vector of encrypted items.
    pub fn new(items: Vec<EncryptedItem>) -> Self {
        EncryptedList { items }
    }

    /// Depth of the list (`n`).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The encrypted item at `depth` (0-based).
    pub fn item(&self, depth: usize) -> Option<&EncryptedItem> {
        self.items.get(depth)
    }

    /// All items in depth order.
    pub fn items(&self) -> &[EncryptedItem] {
        &self.items
    }

    /// Total serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.items.iter().map(EncryptedItem::byte_len).sum()
    }
}

/// The encrypted relation `ER`: `M` encrypted sorted lists, already permuted by the data
/// owner's PRP so that list positions reveal nothing about which attribute they rank.
///
/// Per Theorem 6.1, `ER` reveals only the relation size `n` and the attribute count `M`
/// (the setup leakage `L_Setup = (|R|, M)` of the security definition, §9).
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct EncryptedRelation {
    lists: Vec<EncryptedList>,
    num_objects: usize,
}

impl EncryptedRelation {
    /// Assemble an encrypted relation from its permuted lists.
    pub fn new(lists: Vec<EncryptedList>, num_objects: usize) -> Self {
        for (i, list) in lists.iter().enumerate() {
            assert_eq!(
                list.len(),
                num_objects,
                "encrypted list {i} has {} items but the relation has {} objects",
                list.len(),
                num_objects
            );
        }
        EncryptedRelation { lists, num_objects }
    }

    /// Number of attributes `M` (equivalently, number of encrypted lists).
    pub fn num_attributes(&self) -> usize {
        self.lists.len()
    }

    /// Number of objects `n`.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// The encrypted list stored at (permuted) position `i`.
    pub fn list(&self, i: usize) -> &EncryptedList {
        &self.lists[i]
    }

    /// All encrypted lists.
    pub fn lists(&self) -> &[EncryptedList] {
        &self.lists
    }

    /// Total serialized size in bytes of the encrypted database (the quantity plotted in
    /// Fig. 7b / Fig. 8b).
    pub fn byte_len(&self) -> usize {
        self.lists.iter().map(EncryptedList::byte_len).sum()
    }

    /// The setup leakage `L_Setup(R) = (|R|, M)` revealed to S1 by outsourcing `ER` (§9).
    pub fn setup_leakage(&self) -> (usize, usize) {
        (self.num_objects, self.num_attributes())
    }
}
