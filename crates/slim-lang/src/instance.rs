//! Component instantiation: expanding the implementation hierarchy into a
//! tree of component instances (with recursion detection — one of the
//! validations the paper's backend performs on input models).

use crate::ast::{Category, Model, QName, Subcomponent};
use crate::error::{LangError, LangErrorKind};
use crate::token::Pos;

/// One instantiated component.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Absolute instance path (root name first).
    pub path: QName,
    /// The implementation this instance expands.
    pub impl_name: (String, String),
    /// Category tag.
    pub category: Category,
    /// Child instances (instance subcomponents, in declaration order).
    pub children: Vec<Instance>,
}

impl Instance {
    /// Depth-first iteration over this instance and all descendants.
    pub fn walk(&self) -> Vec<&Instance> {
        let mut out = vec![self];
        for c in &self.children {
            out.extend(c.walk());
        }
        out
    }

    /// Finds a descendant (or self) by absolute path.
    pub fn find(&self, path: &QName) -> Option<&Instance> {
        self.walk().into_iter().find(|i| &i.path == path)
    }
}

/// Instantiates `ty.im` from `model` under the root name `root_name`.
///
/// # Errors
/// [`LangErrorKind::Unknown`] for missing implementations and
/// [`LangErrorKind::Invalid`] for recursive component hierarchies.
pub fn instantiate(
    model: &Model,
    ty: &str,
    im: &str,
    root_name: &str,
) -> Result<Instance, LangError> {
    let mut stack = Vec::new();
    build(model, ty, im, QName::simple(root_name), &mut stack)
}

fn build(
    model: &Model,
    ty: &str,
    im: &str,
    path: QName,
    stack: &mut Vec<(String, String)>,
) -> Result<Instance, LangError> {
    let key = (ty.to_string(), im.to_string());
    if stack.contains(&key) {
        return Err(LangError {
            kind: LangErrorKind::Invalid(format!(
                "recursively defined component `{ty}.{im}` (instantiation cycle)"
            )),
            pos: Pos::START,
        });
    }
    let ci = model.find_impl(ty, im).ok_or_else(|| LangError {
        kind: LangErrorKind::Unknown(format!("implementation `{ty}.{im}`")),
        pos: Pos::START,
    })?;
    // The component type must exist as well (features live there).
    if model.find_type(ty).is_none() {
        return Err(LangError {
            kind: LangErrorKind::Unknown(format!("component type `{ty}`")),
            pos: Pos::START,
        });
    }
    stack.push(key);
    let mut children = Vec::new();
    for sub in &ci.subcomponents {
        if let Subcomponent::Instance { name, category, impl_ref, pos } = sub {
            // The innermost subcomponent declaration locates the error.
            let child = build(model, &impl_ref.0, &impl_ref.1, path.child(name.clone()), stack)
                .map_err(|e| if e.pos == Pos::START { LangError { pos: *pos, ..e } } else { e })?;
            if child.category != *category {
                stack.pop();
                return Err(LangError {
                    kind: LangErrorKind::Invalid(format!(
                        "subcomponent `{name}`: category `{category}` does not match \
                         implementation `{}.{}` declared as `{}`",
                        impl_ref.0, impl_ref.1, child.category
                    )),
                    pos: *pos,
                });
            }
            children.push(child);
        }
    }
    stack.pop();
    Ok(Instance {
        path,
        impl_name: (ty.to_string(), im.to_string()),
        category: ci.category,
        children,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn flat_instantiation() {
        let m = parse(
            r#"
            device GPS end GPS;
            device implementation GPS.Impl end GPS.Impl;
            system Top end Top;
            system implementation Top.Impl
              subcomponents
                gps1: device GPS.Impl;
                gps2: device GPS.Impl;
            end Top.Impl;
            "#,
        )
        .unwrap();
        let root = instantiate(&m, "Top", "Impl", "top").unwrap();
        assert_eq!(root.path.to_string(), "top");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].path.to_string(), "top.gps1");
        assert_eq!(root.walk().len(), 3);
        assert!(root.find(&QName::parse("top.gps2")).is_some());
        assert!(root.find(&QName::parse("top.gps3")).is_none());
    }

    #[test]
    fn nested_instantiation() {
        let m = parse(
            r#"
            device Leaf end Leaf;
            device implementation Leaf.I end Leaf.I;
            system Mid end Mid;
            system implementation Mid.I
              subcomponents
                leaf: device Leaf.I;
            end Mid.I;
            system Top end Top;
            system implementation Top.I
              subcomponents
                mid: system Mid.I;
            end Top.I;
            "#,
        )
        .unwrap();
        let root = instantiate(&m, "Top", "I", "t").unwrap();
        assert!(root.find(&QName::parse("t.mid.leaf")).is_some());
    }

    #[test]
    fn recursion_detected() {
        let m = parse(
            r#"
            system S end S;
            system implementation S.I
              subcomponents
                child: system S.I;
            end S.I;
            "#,
        )
        .unwrap();
        let err = instantiate(&m, "S", "I", "root").unwrap_err();
        assert!(matches!(err.kind, LangErrorKind::Invalid(msg) if msg.contains("recursively")));
    }

    #[test]
    fn missing_impl_and_type_reported() {
        let m = parse("system S end S;").unwrap();
        assert!(matches!(
            instantiate(&m, "S", "I", "r").unwrap_err().kind,
            LangErrorKind::Unknown(_)
        ));
        let m2 = parse("system implementation S.I end S.I;").unwrap();
        assert!(matches!(
            instantiate(&m2, "S", "I", "r").unwrap_err().kind,
            LangErrorKind::Unknown(_)
        ));
    }

    #[test]
    fn category_mismatch_rejected() {
        let m = parse(
            r#"
            device D end D;
            device implementation D.I end D.I;
            system T end T;
            system implementation T.I
              subcomponents
                d: process D.I;
            end T.I;
            "#,
        )
        .unwrap();
        let err = instantiate(&m, "T", "I", "r").unwrap_err();
        assert!(matches!(err.kind, LangErrorKind::Invalid(msg) if msg.contains("category")));
    }
}
